"""Monte Carlo backend: simulated Brownian paths and regression projections.

Conditional expectations are cross-sectional least-squares projections on a
user-chosen basis, in place of the lattice's exact child averages; the
driver update (explicit, or the damped implicit fixed point) is the
lattice kernel's own, and so is the reflection and penalty step,
``bsde._reflect``, applied after the regression, so obstacle constraints
hold path by path, exactly; the flat-off products are read off its
compensator increments.  This is the backend for dimensions above one and
for cross-checking the lattice at scale.

Reproducibility: path ``i`` draws from a counter-based bit generator keyed
by ``(seed, i)``, so bundles are bit-identical across runs and independent
of how many other paths are simulated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bsde import _driver_update, _reflect
from .generator import Generator
from .lattice import DUMP_CHUNK, _write_rows

CONDITION_WARN = 1e8


class SingularRegressionError(RuntimeError):
    """The regression design matrix is numerically rank deficient."""


@dataclass(frozen=True)
class PathBundle:
    """Simulated Brownian increments and the state paths they drive."""

    d: int
    T: float
    N: int
    M: int
    seed: int
    increments: np.ndarray  # (M, N, d)
    states: np.ndarray      # (M, N + 1, d), cumulative sums from zero
    diagnostics: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def gate_ok(self) -> bool:
        return self.diagnostics.get("gate_ok", False)


def simulate_paths(d: int, T: float, N: int, M: int, seed: int) -> PathBundle:
    """Simulate ``M`` independent ``d``-dimensional Brownian paths."""
    if d < 1 or N < 1:
        raise ValueError("dimension and step count must be positive")
    if T <= 0:
        raise ValueError("horizon must be positive")
    if M < 100:
        raise ValueError("at least 100 paths are required")
    dt = T / N
    increments = np.empty((M, N, d))
    # one generator re-keyed per path: Philox key words (low, high) = (path, seed)
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    key[1] = int(seed) & ((1 << 64) - 1)
    for i in range(M):
        key[0] = i
        bits.state = state
        gen.standard_normal(out=increments[i])
    increments *= math.sqrt(dt)
    states = np.zeros((M, N + 1, d))
    np.cumsum(increments, axis=1, out=states[:, 1:, :])

    flat = increments.reshape(-1, d)
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    mean_gate = bool(np.all(np.abs(mean) <= 3.0 / math.sqrt(M)))
    var_gate = bool(np.all(np.abs(var - dt) <= 0.1 * dt))
    diagnostics = {
        "increment_mean": mean.tolist(),
        "increment_var": var.tolist(),
        "mean_gate_ok": mean_gate,
        "var_gate_ok": var_gate,
        "gate_ok": mean_gate and var_gate,
    }
    if d > 1:
        cov = np.cov(flat, rowvar=False)
        off = cov[~np.eye(d, dtype=bool)]
        diagnostics["max_cross_covariance"] = float(np.max(np.abs(off)))
        diagnostics["cross_gate_ok"] = bool(
            np.max(np.abs(off)) <= 3.0 * dt / math.sqrt(M)
        )
    return PathBundle(d, float(T), int(N), int(M), int(seed), increments, states,
                      diagnostics)


# ----------------------------------------------------------------------
# regression bases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionBasis:
    """Cross-sectional basis: total-degree polynomials or indicator bins."""

    family: str = "polynomial"
    degree: int = 3
    bins: int = 8

    def design(self, states: np.ndarray, edges: Optional[np.ndarray] = None):
        """Design matrix at one time slice; states has shape (M, d)."""
        if self.family == "polynomial":
            return self._poly(states), None
        if self.family == "indicator-bins":
            if states.shape[1] != 1:
                raise ValueError("indicator bins support one dimension")
            x = states[:, 0]
            if edges is None:
                qs = np.linspace(0.0, 1.0, self.bins + 1)[1:-1]
                edges = np.quantile(x, qs)
            idx = np.searchsorted(edges, x)
            mat = np.zeros((x.size, self.bins))
            mat[np.arange(x.size), idx] = 1.0
            keep = mat.sum(axis=0) > 0
            return mat[:, keep], edges
        raise ValueError(f"unknown basis family {self.family!r}")

    def _poly(self, states: np.ndarray) -> np.ndarray:
        m, d = states.shape
        cols = [np.ones(m)]
        powers = _total_degree_powers(d, self.degree)
        for p in powers:
            col = np.ones(m)
            for axis, e in enumerate(p):
                if e:
                    col = col * states[:, axis] ** e
            cols.append(col)
        return np.column_stack(cols)


def _total_degree_powers(d: int, degree: int):
    """Nonzero multi-indices with total degree <= degree, fixed order."""
    out = []

    def rec(prefix, remaining, axis):
        if axis == d:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, axis + 1)

    rec([], degree, 0)
    out.sort(key=lambda p: (sum(p), p))
    return out


def _project(design: np.ndarray, targets: np.ndarray):
    """Least squares of each target column on the design; returns fitted
    values and the condition number."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[0] <= 0 or s[-1] <= s[0] * 1e-13:
        raise SingularRegressionError(
            f"regression design is rank deficient: singular values "
            f"{s[0]:.3g} .. {s[-1]:.3g}"
        )
    cond = float(s[0] / s[-1])
    coeff = vt.T @ ((u.T @ targets) / s[:, None])
    return design @ coeff, cond


# ----------------------------------------------------------------------
# backward solve on paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class McProblem:
    """Problem datum for the path backend, given as state functions."""

    terminal: Callable                      # states (M, d) -> values (M,)
    lower: Optional[Callable] = None        # (t, states) -> values
    upper: Optional[Callable] = None


@dataclass(frozen=True)
class McResult:
    y0: float
    stderr: float
    max_condition: float
    condition_warning: bool
    flat_off_lower: float
    flat_off_upper: float
    seed: int
    basis: RegressionBasis
    scheme: str
    bootstrap_samples: int


def write_bundle_csv(path, bundle: PathBundle) -> None:
    """Path dump: one row per (path, step, coordinate)."""
    step_keys = [f",{k},{j}" for k in range(bundle.N) for j in range(bundle.d)]
    per_chunk = max(1, DUMP_CHUNK // len(step_keys))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("path,k,coord,dB,state\r\n")
        for lo in range(0, bundle.M, per_chunk):
            hi = min(lo + per_chunk, bundle.M)
            keys = [f"{i}{s}" for i in range(lo, hi) for s in step_keys]
            values = [bundle.increments[lo:hi].reshape(-1), bundle.states[lo:hi, 1:].reshape(-1)]
            _write_rows(fh, (keys,), values)


def write_mc_sidecar(path, result: "McResult") -> None:
    """Estimate sidecar: seed, basis spec and diagnostics."""
    payload = {
        "y0": result.y0,
        "stderr": result.stderr,
        "seed": result.seed,
        "scheme": result.scheme,
        "basis_family": result.basis.family,
        "basis_degree": result.basis.degree,
        "basis_bins": result.basis.bins,
        "max_condition": result.max_condition,
        "condition_warning": result.condition_warning,
        "flat_off_lower": result.flat_off_lower,
        "flat_off_upper": result.flat_off_upper,
        "bootstrap_samples": result.bootstrap_samples,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(values, what: str, k: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{what} is not finite on path {int(np.argmax(bad))} at step {k}")
    return values


def mc_terminal(paths: PathBundle, problem: McProblem) -> np.ndarray:
    """Terminal data per path, checked for shape, for the obstacle order the
    lattice solvers also require, and for finite terminal and obstacle
    values at every path step, one step at a time."""
    ends = paths.states[:, paths.N, :]
    term = np.asarray(problem.terminal(ends), dtype=float)
    if term.shape != (paths.M,):
        raise ValueError("terminal function must return one value per path")
    _finite(term, "terminal data", paths.N)
    for side, fn in (("lower", problem.lower), ("upper", problem.upper)):
        if fn is None:
            continue
        for k in range(paths.N):
            _finite(fn(paths.dt * k, paths.states[:, k, :]), f"{side} obstacle", k)
        rail = _finite(fn(paths.T, ends), f"{side} obstacle", paths.N)
        if np.any(rail > term + 1e-12 if side == "lower" else term > rail + 1e-12):
            raise ValueError(f"terminal data {'below' if side == 'lower' else 'above'} "
                             f"the {side} obstacle on a path")
    return term


def solve_mc(
    paths: PathBundle,
    problem: McProblem,
    g: Generator,
    basis: RegressionBasis = RegressionBasis(),
    scheme: str = "explicit",
    penalty: Optional[tuple] = None,
    batches: int = 50,
    bootstrap_samples: int = 500,
) -> McResult:
    """Backward induction on simulated paths with regression projections.

    ``penalty`` is ``(side, level)`` to approximate a reflection by the
    closed-form implicit penalty instead of the clamp.  The standard error
    is bootstrapped from disjoint path batches re-solved end to end, so it
    sees the regression-stage noise, not just the final averaging.
    """
    if g.stop_rule is not None:
        raise ValueError("stopped drivers follow lattice nodes: no path backend")
    M, N, d = paths.M, paths.N, paths.d
    dt = paths.dt
    term_all = mc_terminal(paths, problem)

    max_cond = 1.0
    flat_lower = 0.0
    flat_upper = 0.0
    penalized = None if penalty is None else penalty[0]

    def clamp(y, t, states, record):
        nonlocal flat_lower, flat_upper
        low, up = (None if fn is None else np.asarray(fn(t, states), dtype=float)
                   for fn in (problem.lower, problem.upper))
        out, dk, dj = _reflect(y, low, up, dt, penalty)
        if record and low is not None and penalized != "lower":
            flat_lower = max(flat_lower, float(np.max(np.abs((out - low) * dk))))
        if record and up is not None and penalized != "upper":
            flat_upper = max(flat_upper, float(np.max(np.abs((up - out) * dj))))
        return out

    def driver_step(expectation, zhat, k, states):
        svar = states[:, 0] if d == 1 else states

        def driver(y):
            return np.asarray(g.fn(dt * k, svar, y, zhat), dtype=float)

        return _driver_update(driver, expectation, dt, g.lam_plus, scheme, k)

    def backward(idx, record=False):
        nonlocal max_cond
        v = term_all[idx]
        for k in range(N - 1, 0, -1):
            states_k = paths.states[idx, k, :]
            db = paths.increments[idx, k, :]
            design, _ = basis.design(states_k)
            targets = np.column_stack([v] + [v * db[:, j] / dt for j in range(d)])
            fitted, cond = _project(design, targets)
            if record:
                max_cond = max(max_cond, cond)
            expectation = fitted[:, 0]
            zhat = fitted[:, 1] if d == 1 else fitted[:, 1:]
            y = driver_step(expectation, zhat, k, states_k)
            v = clamp(y, dt * k, states_k, record)
        # root: every path shares the state, plain averages are exact
        e0 = float(v.mean())
        z0 = v @ paths.increments[idx, 0, :] / (dt * idx.size)
        y0 = driver_step(
            np.array([e0]),
            np.atleast_1d(float(z0[0])) if d == 1 else z0[None, :],
            0,
            paths.states[idx[:1], 0, :],
        )
        return float(clamp(y0, 0.0, paths.states[idx[:1], 0, :], record)[0])

    y0 = backward(np.arange(M), record=True)

    n_batches = max(2, min(batches, M // 100))
    size = M // n_batches
    batch_vals = np.array(
        [backward(np.arange(b * size, (b + 1) * size)) for b in range(n_batches)]
    )
    rng = np.random.default_rng(paths.seed ^ 0x5EED_B00F)
    resampled = rng.integers(0, n_batches, size=(bootstrap_samples, n_batches))
    boot_means = batch_vals[resampled].mean(axis=1)
    stderr = float(boot_means.std(ddof=1))

    return McResult(
        y0=y0,
        stderr=stderr,
        max_condition=max_cond,
        condition_warning=max_cond > CONDITION_WARN,
        flat_off_lower=flat_lower,
        flat_off_upper=flat_upper,
        seed=paths.seed,
        basis=basis,
        scheme=scheme,
        bootstrap_samples=bootstrap_samples,
    )
