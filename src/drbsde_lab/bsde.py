"""Backward-induction kernel for equations with a nonlinear driver.

Every backward step in the package is :func:`step_candidate`.  It splits the
next-step slice into children, giving the exact conditional expectation
``E`` and the martingale integrand ``Z``, and hands them to
:func:`_driver_update`, the one place the new value is computed:

* explicit scheme:  ``y = E + dt * g(t, state, E, Z)``
* implicit scheme:  ``y`` solves ``y = E + dt * g(t, state, y, Z)`` by a
  damped fixed point (damping ``1/(1 + dt*lam_plus)``, cap 100 iterations,
  tolerance 1e-12 relative to ``1 + |E|``, else :class:`FixedPointError`,
  raised at once when a residual turns inf or NaN, which never recovers); the
  driver is only one-sidedly monotone in ``y``, so the undamped iteration
  may diverge.  Every element converges on its own: its value is a
  function of its own node and children alone.

A stopped driver (see ``generator.stop_generator``) is switched off inside
:func:`step_candidate` itself, so every solver and oracle gives it the same
meaning.  :func:`backward_induction` runs "step, then project" from the
horizon to the root.  Its leading axes are rows: a family of independent
solves (a penalty schedule with its reflected limit, a direct solve with its
penalty families, many evaluations) runs as one sweep, each row bitwise
equal to its own solve, because no element's fixed point looks at any other.

The projection is :func:`_reflect`, the one place a candidate is clamped to
a lower obstacle L and/or an upper obstacle U, or pushed toward one by the
closed-form implicit penalty step, each row of a sweep at its own level per
side (the level inf clamps), and the push booked as dK/dJ.  The plain,
reflected, doubly reflected and penalized solvers run it through
:func:`_reflected_sweep`; pasting, the evaluation between stopping rules and
the Monte Carlo backend (which also shares :func:`_driver_update`) call it
directly.  An upper obstacle alone is swept as the mirror of a lower one,
there and only there, because the mirror fixes the signed zeros that pinned
outputs carry.  The independent oracles (the Snell recursion and the Dynkin
pair table) keep their own loops and projections over the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .generator import Generator, negate_reflect
from .lattice import (
    AdaptedProcess,
    Lattice,
    StoppingRule,
    TerminalPayoff,
    conditional_expectation,
    conditional_expectation_chain,
    martingale_increment,
    _write_json,
    _write_node_dump,
)

IMPLICIT_TOL = 1e-12
IMPLICIT_CAP = 100


class FixedPointError(RuntimeError):
    """Damped implicit iteration failed to meet tolerance within the cap.

    ``step`` is the time step, ``node`` the last-axis index (the node on a
    lattice) of the first NaN residual, or else of the largest failing one,
    and ``residual`` that element's last residual (NaN or inf when the
    iterates left the finite range).
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
    keep = ~np.isnan(x)
    if not keep.any():
        return 0.0
    return float(np.max(np.abs(x[keep])))


def _driver_update(driver, expectation, dt: float, lam_plus: float, scheme: str,
                   k: int, stats: Optional[dict] = None):
    """New value from the conditional expectation ``E`` and ``driver(y)``.

    Explicit: ``E + dt * driver(E)``.  Implicit: the damped fixed point of
    ``y = E + dt * driver(y)``, solved element by element: element ``i``
    stops at its first residual ``<= 1e-15 * (1 + |E_i|)`` and keeps that
    iteration's target, so its value depends only on its own ``E_i`` and
    driver inputs, never on what else is in the batch.  Raises
    :class:`FixedPointError` (naming step ``k``) at the first non-finite
    residual, or when the cap leaves an element above ``1e-12 * (1 + |E_i|)``.
    ``stats["max_iterations"]`` collects the largest iteration count per
    row, rows being all axes but the last.
    """
    if scheme == "explicit":
        return expectation + dt * driver(expectation)
    if scheme != "implicit":
        raise ValueError(f"unknown scheme {scheme!r}")

    damp = 1.0 / (1.0 + dt * lam_plus)
    y = expectation + dt * driver(expectation)
    # each element's tolerance scales with its data, and it iterates to well
    # below the guaranteed one; post-frontier nodes, where E itself is NaN,
    # are left out, and a NaN or inf residual anywhere else never converges
    fine = 1e-15 * (1.0 + np.abs(expectation))
    frontier = np.count_nonzero(np.isnan(expectation))
    iters = np.ones(expectation.shape[:-1], dtype=np.int64)
    for it in range(1, IMPLICIT_CAP + 1):
        target = expectation + dt * driver(y)
        gap = abs(target - y)
        live = gap > fine
        # an inf residual gives an inf or NaN iterate, and NaN stays NaN:
        # no later iteration can converge
        diverged = np.count_nonzero(~np.isfinite(gap)) > frontier
        if diverged or not live.any() or it == IMPLICIT_CAP:
            break
        if stats is not None:
            iters += live.any(axis=-1)
        # live elements step to y + damp * (target - y), built in gap's
        # buffer; a converged one keeps its y, so its target recurs as is
        np.subtract(target, y, out=gap)
        gap *= damp
        gap += y
        np.copyto(y, gap, where=live)
        del target, gap, live  # free them before the next driver call
    if stats is not None:
        stats["max_iterations"] = np.maximum(stats.get("max_iterations", 0), iters)
    if diverged or live.any():
        # above the 1e-12 tolerance, or NaN off the frontier
        failed = (gap > fine * (IMPLICIT_TOL / 1e-15)) | (np.isnan(gap) ^ np.isnan(expectation))
        if failed.any():
            # name the first NaN residual, if any, else the largest failing one
            # (an inf residual is the largest)
            at = np.unravel_index(np.argmax(np.where(failed, gap, 0.0)), gap.shape)
            residual, node = float(gap[at]), int(at[-1])
            how = (f"diverged at iteration {it}" if not math.isfinite(residual)
                   else f"did not converge within {IMPLICIT_CAP} iterations")
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
    expectation = conditional_expectation(lattice, k, next_values)
    zval = martingale_increment(lattice, k, next_values)
    t = lattice.time(k)
    states = lattice.states(k)
    if g.stop_rule is None:
        def driver(y):
            return g.fn(t, states, y, zval)
    else:
        active = g.step_mask(lattice)[k]

        def driver(y):
            return active * g.fn(t, states, y, zval)

    cand = _driver_update(driver, expectation, lattice.dt, g.lam_plus, scheme, k, stats)
    return cand, zval


def backward_induction(lattice: Lattice, g: Generator, terminal, scheme: str, project):
    """Run "step, then project" from step ``N - 1`` down to the root.

    ``terminal`` has the nodes on its last axis; leading axes are rows,
    independent solves swept together (a 1-D ``terminal`` is one row).
    ``project(k, candidate)`` turns the step-``k`` candidate into
    ``(y, dK_k, dJ_k)``: the value and the compensator increments the
    projection books there.  Returns the per-step stacks ``(Y, Z, dK, dJ,
    stats)``: four lists of ``N + 1`` arrays shaped like ``terminal`` (the
    last entries ``terminal``, zero, zero, zero) and the implicit-iteration
    counts, arrays over the rows; :func:`_row_process` and
    :func:`_row_stats` take one row's, so a caller wraps only the stacks it
    keeps.  Every element converges on its own, so a row's bits do not
    depend on its companions.
    """
    n = lattice.N
    last = np.asarray(terminal, dtype=float)
    zeros = np.broadcast_to(0.0, last.shape)
    yvals = [None] * n + [last]
    zvals, dk, dj = [None] * n + [zeros], [None] * n + [zeros], [None] * n + [zeros]
    stats: dict = {}
    for k in range(n - 1, -1, -1):
        cand, zvals[k] = step_candidate(lattice, g, k, yvals[k + 1], scheme, stats)
        yvals[k], dk[k], dj[k] = project(k, cand)
    return yvals, zvals, dk, dj, stats


def _row_process(lattice: Lattice, stack, row=()) -> AdaptedProcess:
    """Row ``row`` (an index into the leading axes) of a per-step stack."""
    return AdaptedProcess(lattice, tuple(v[row] for v in stack))


def _row_stats(stats: dict, row=()) -> dict:
    """Row ``row``'s implicit-iteration counts."""
    return {key: int(v[row]) for key, v in stats.items()}


def penalty_step(candidate: np.ndarray, obstacle: np.ndarray, n: float, dt: float,
                 side: str) -> np.ndarray:
    """Closed-form implicit penalty solve at one node slice."""
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown obstacle side {side!r}")
    keep = candidate >= obstacle if side == "lower" else candidate <= obstacle
    return np.where(keep, candidate, (candidate + dt * n * obstacle) / (1.0 + dt * n))


def _reflect(cand, lower=None, upper=None, dt: float = 0.0, levels=(math.inf, math.inf)):
    """The one projection: returns ``(y, dK, dJ)`` for a candidate slice.

    The lower side acts first, then the upper side.  ``levels = (n_lower,
    n_upper)`` gives each side a penalty level, a scalar or a column with one
    entry per row.  Where a given side's level is finite, it takes the
    implicit penalty step at that level and books nothing; where it is inf,
    the limit of the penalized solutions, it is clamped and books what it
    moved: ``dK = max(L, c) - c``, ``dJ = c - min(U, c)``, ``c`` being the
    value that side receives.  A side whose rows all clamp, or all penalize,
    runs that branch alone; only a mixed side picks per row, and no inf level
    reaches :func:`penalty_step`.
    """
    zeros = np.broadcast_to(0.0, np.shape(cand))
    y, moved = cand, [zeros, zeros]
    for i, (obstacle, side) in enumerate(((lower, "lower"), (upper, "upper"))):
        if obstacle is None:
            continue
        clamp = np.asarray(levels[i]) == math.inf
        if not clamp.any():
            y = penalty_step(y, obstacle, levels[i], dt, side)
            continue
        c, y = y, np.maximum(obstacle, y) if side == "lower" else np.minimum(obstacle, y)
        moved[i] = y - c if side == "lower" else c - y
        if not clamp.all():
            pushed = penalty_step(c, obstacle, np.where(clamp, 0.0, levels[i]), dt, side)
            y, moved[i] = np.where(clamp, y, pushed), np.where(clamp, moved[i], 0.0)
    return y, *moved


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


def _negate_process(p: AdaptedProcess) -> AdaptedProcess:
    return AdaptedProcess(p.lattice, tuple(-v for v in p.values))


CLAMP_ROW = (math.inf, math.inf, {})


def _reflected_sweep(lattice: Lattice, g: Generator, terminal, scheme: str, lower=None,
                     upper=None, rows=(CLAMP_ROW,)) -> list[Solution]:
    """Sweep :func:`_reflect` from ``terminal`` to the root, one solution per row.

    ``lower`` and ``upper`` are the obstacle processes.  Each row is
    ``(n_lower, n_upper, meta)``: the penalty levels of its two sides (inf
    clamps, see :func:`_reflect`; the level of an absent side is ignored)
    and its own meta.  The rows run as one sweep, each bitwise equal to its
    own, so a reflected limit and its penalty levels, or a direct solve and
    its penalty families, cost one sweep.  A row's kind and attached
    obstacles follow its clamped sides; its meta is the base meta, its
    iteration stats and its ``meta``.

    An upper side alone runs as the mirror of a lower sweep: negate the
    data, reflect the driver through the origin, sweep against ``-U`` and
    negate back, the compensators trading places.  The mirror pins the
    signed zeros of upper solutions: a direct ``min(U, c)`` would turn some
    of their ``-0.0`` values of Z into ``+0.0``.
    """
    if lower is None and upper is not None:
        mirrored = _reflected_sweep(
            lattice, negate_reflect(g), -np.asarray(terminal), scheme, _negate_process(upper),
            rows=[(n, math.inf, meta) for _, n, meta in rows])
        return [replace(
            m, kind="plain" if m.obstacle_lower is None else "reflected-upper",
            Y=_negate_process(m.Y), Z=_negate_process(m.Z), dK=m.dJ, dJ=m.dK,
            meta={**m.meta, "generator": g.name}, obstacle_lower=None,
            obstacle_upper=upper if m.obstacle_lower is not None else None,
        ) for m in mirrored]
    terminal = np.asarray(terminal, dtype=float)
    terminal = np.broadcast_to(terminal, (len(rows), terminal.shape[-1]))
    levels = np.array([row[:2] for row in rows], dtype=float).T[:, :, None]  # per side, a column

    def project(k, cand):
        return _reflect(cand, None if lower is None else lower[k],
                        None if upper is None else upper[k], lattice.dt, levels)

    # unbooked sides get zeros, not views keeping a mixed side's rows alive
    zero = np.broadcast_to(0.0, lattice.n_nodes(lattice.N))
    zeros = AdaptedProcess(lattice, tuple(zero[:lattice.n_nodes(k)] for k in range(lattice.N + 1)))
    *stacks, stats = backward_induction(lattice, g, terminal, scheme, project)
    out = []
    for r, (n_lower, n_upper, meta) in enumerate(rows):
        Y, Z, dK, dJ = (_row_process(lattice, stack, r) for stack in stacks)
        clamped_lower = lower if n_lower == math.inf else None
        clamped_upper = upper if n_upper == math.inf else None
        out.append(Solution(
            kind=SOLUTION_KINDS[(clamped_lower is not None) + 2 * (clamped_upper is not None)],
            Y=Y, Z=Z, dK=zeros if clamped_lower is None else dK,
            dJ=zeros if clamped_upper is None else dJ,
            meta={**_base_meta(lattice, g, scheme), **_row_stats(stats, r), **meta},
            obstacle_lower=clamped_lower, obstacle_upper=clamped_upper))
    return out


def solve_bsde(
    lattice: Lattice, xi: TerminalPayoff, g: Generator, scheme: str = "explicit"
) -> Solution:
    """Solve the plain backward equation with terminal data ``xi``."""
    if not lattice.same_grid(xi.lattice):
        raise ValueError("terminal data lives on a different lattice")
    sol, = _reflected_sweep(lattice, g, xi.values, scheme)
    return sol


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
    nu,
    tau,
    payoff,
    g: Generator,
    scheme: str = "explicit",
):
    """Nonlinear evaluation of ``payoff`` collected at ``tau``, seen from ``nu``.

    Backward recursion: a node flagged by ``tau`` takes the payoff value (the
    driver integrates to nothing over the degenerate interval at the stop
    node); any earlier node takes one solver step from its children.  The
    returned table holds, at each node, the evaluation started there given
    the rule has not yet fired; entries strictly past the stop frontier are
    meaningless.  Read it at the first ``nu``-flag of each path -- the root,
    for a rule that stops immediately.

    Any of ``nu``, ``tau`` and ``payoff`` may be a list with one entry per
    row (a single one serves every row); the rows then run as one sweep and
    a list of tables comes back, each bitwise equal to its own call's.
    """
    given = (nu, tau, payoff)
    rows = max((len(a) for a in given if isinstance(a, list)), default=1)
    if not rows:
        return []
    nus, taus, pays = ([a] * rows if not isinstance(a, list) else a for a in given)
    pays = [_as_payoff_process(p, lattice) for p in pays]
    checked = set()  # rule pairs by identity: a pair given on several rows is checked once
    for nu_r, tau_r, pay_r in zip(nus, taus, pays, strict=True):
        if (id(nu_r), id(tau_r)) not in checked:
            if not (lattice.same_grid(nu_r.lattice) and lattice.same_grid(tau_r.lattice)):
                raise ValueError("stopping rules live on a different lattice")
            if not nu_r.pathwise_le(tau_r):
                raise ValueError("start rule must stop no later than the collection rule")
            checked.add((id(nu_r), id(tau_r)))
        reach = tau_r.not_yet_stopped()
        for k in range(lattice.N + 1):
            bad = ~np.isfinite(pay_r[k]) & tau_r.flags[k] & reach[k]
            if bad.any():
                raise ValueError("payoff undefined at stop node "
                                 f"{lattice.node_label(k, int(np.argmax(bad)))}")

    def collect(k, cand):
        flagged = np.stack([t.flags[k] for t in taus])
        return _reflect(np.where(flagged, np.stack([p[k] for p in pays]), cand))

    terminal = np.stack([p[lattice.N] for p in pays])
    yvals = backward_induction(lattice, g, terminal, scheme, collect)[0]
    tables = [_row_process(lattice, yvals, r) for r in range(rows)]
    return tables if any(isinstance(a, list) for a in given) else tables[0]


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
    checks: dict

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks.values())


def random_rule(lattice: Lattice, rng) -> StoppingRule:
    """Stop at each pre-terminal node with probability 1/4."""
    flags = [rng.random(lattice.n_nodes(k)) < 0.25 for k in range(lattice.N)]
    flags.append(np.ones(lattice.n_nodes(lattice.N), dtype=bool))
    return StoppingRule(lattice, tuple(flags))


def _probe_driver(g: Generator, lattice: Lattice) -> tuple[bool, bool, bool]:
    """Probe the driver on one grid of ``(t, s, y, z)``: whether it is free
    of ``y``, whether it vanishes at ``z = 0`` and whether it vanishes at
    ``y = z = 0``."""
    t = np.array([0.0, lattice.T / 3, lattice.T])
    s = np.array([-2.0, -0.5, 0.0, 1.0, 2.5])
    y = np.array([-3.0, -1.0, 0.0, 0.7, 2.0])
    z = np.array([-2.5, -1.0, 0.0, 0.4, 3.0])
    tt, ss, yy, zz = (a.ravel() for a in np.meshgrid(t, s, y, z, indexing="ij"))
    zero = np.zeros_like(tt)
    base = g.fn(tt, ss, zero, zz)
    y_free = _nan_sup(np.asarray(g.fn(tt, ss, yy, zz)) - base) <= 1e-14
    const_ok = _nan_sup(np.asarray(g.fn(tt, ss, yy, zero))) <= 1e-14
    origin_ok = _nan_sup(np.asarray(g.fn(tt, ss, zero, zero))) <= 1e-14
    return y_free, const_ok, origin_ok


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


def _draw_case(lattice: Lattice, rng, const_ok: bool, y_free: bool):
    """One axiom case: rules ``nu <= gamma <= tau``, the payoffs evaluated
    from ``nu`` to ``tau`` by name, and the indicator and shift events."""
    tau = random_rule(lattice, rng)
    gamma = tau.union(random_rule(lattice, rng))
    nu = gamma.union(random_rule(lattice, rng))
    xi_vals = [rng.normal(size=lattice.n_nodes(k)) for k in range(lattice.N + 1)]
    pays = {"xi": xi_vals, "eta": [v + rng.exponential(0.5, size=v.shape) for v in xi_vals]}
    if const_ok:
        pays["known"] = _subtree_indicator(lattice, nu, rng.normal(size=lattice.total_nodes))
    events = [_subtree_indicator(
        lattice, nu, (rng.random(lattice.total_nodes) < 0.5).astype(float))]
    pays["masked"] = [iv * xv for iv, xv in zip(events[0], xi_vals)]
    if y_free:
        events.append(_subtree_indicator(lattice, nu, rng.normal(size=lattice.total_nodes)))
        pays["shifted"] = [sv + xv for sv, xv in zip(events[1], xi_vals)]
    pays = {name: AdaptedProcess(lattice, tuple(v)) for name, v in pays.items()}
    return nu, gamma, tau, pays, [AdaptedProcess(lattice, tuple(e)) for e in events]


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

    y_free, const_ok, origin_ok = _probe_driver(g, lattice)

    worst = dict.fromkeys(["monotonicity", "time-consistency", "constant-preserving",
                           "zero-one-law", "translation-invariance"], 0.0)
    counted = dict.fromkeys(worst, 0)

    def fold(name, values):
        for v in values:
            worst[name] = max(worst[name], _nan_sup(v))
        counted[name] += 1

    def sweep(count):
        """Draw ``count`` cases, evaluate them and fold in their checks."""
        drawn = [_draw_case(lattice, rng, const_ok, y_free) for _ in range(count)]
        rows = [(nu, tau, p) for nu, _, tau, pays, _ in drawn for p in pays.values()]
        flat = iter(g_evaluate(lattice, *map(list, zip(*rows)), g, scheme))
        tables = [{name: next(flat) for name in pays} for *_, pays, _ in drawn]
        composed = g_evaluate(lattice, [d[0] for d in drawn], [d[1] for d in drawn],
                              [t["xi"] for t in tables], g, scheme)
        for (nu, _, _, pays, events), table, comp in zip(drawn, tables, composed):
            def at(p):
                return rule_values(p, nu)

            at_xi = at(table["xi"])
            # (1) monotonicity at the nu stop nodes
            fold("monotonicity", (np.maximum(a - b, 0.0)
                                  for a, b in zip(at_xi, at(table["eta"]))))
            # (2) time consistency: evaluate to gamma, then from gamma to nu
            fold("time-consistency", (a - b for a, b in zip(at(comp), at_xi)))
            # (3) constant preserving: data already known at nu is reproduced
            if const_ok:
                fold("constant-preserving", (a - b for a, b in zip(
                    at(table["known"]), at(pays["known"]))))
            # (4) zero-one law on events known at nu
            fold("zero-one-law", (v for im, a, b in zip(at(events[0]), at(table["masked"]), at_xi)
                                  for v in (im * (a - b), a - im * b)[:1 + origin_ok]))
            # (5) translation invariance for y-free drivers
            if y_free:
                fold("translation-invariance", (a - (b + sm) for sm, a, b in zip(
                    at(events[1]), at(table["shifted"]), at_xi)))

    # cases are drawn in the order of one-by-one evaluation, a block at a
    # time: up to 64 independent tables run as one sweep, then their
    # time-consistency compositions as a second
    per_sweep = max(1, 64 // (3 + const_ok + y_free))
    for lo in range(0, n_cases, per_sweep):
        sweep(min(per_sweep, n_cases - lo))

    skip = {"constant-preserving": not const_ok, "translation-invariance": not y_free}
    checks = {
        name: AxiomCheck("skipped", 0.0, 0) if skip.get(name, False)
        else AxiomCheck("pass" if worst[name] <= tol else "fail", worst[name], counted[name])
        for name in worst
    }
    return AxiomReport(checks)


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
    _write_json(path, {"kind": sol.kind, **sol.meta})
