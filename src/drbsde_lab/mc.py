"""Monte Carlo backend: simulated Brownian paths and regression projections.

Conditional expectations are cross-sectional least-squares projections on a
polynomial basis, in place of the lattice's exact child averages; the
driver update (explicit, or the damped implicit fixed point) is the
lattice kernel's own, and so is the reflection and penalty step,
``bsde._reflect``, applied after the regression, so obstacle constraints
hold path by path, exactly; the flat-off products are read off its
compensator increments.  It runs in one dimension, as the lattice does, and
cross-checks the lattice at scale.

Reproducibility: path ``i`` draws from a counter-based bit generator keyed
by ``(seed, i)``, so bundles are bit-identical across runs and independent
of how many other paths are simulated.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bsde import _driver_update, _reflect
from .generator import Generator
from .lattice import _ahead, _float_cells, _in_two, _text, _write_json, _write_table

CONDITION_WARN = 1e8


class SingularRegressionError(RuntimeError):
    """The regression design matrix is numerically rank deficient."""


class PathDataError(ValueError):
    """Terminal or obstacle data on the paths fails a :func:`mc_terminal` check."""


# paths per chunk of a running sum: a chunk's increments stay in cache
STATE_CHUNK = 4096
# most disjoint path batches behind the bootstrap standard error, and its resamples
BATCHES = 50
BOOTSTRAP_SAMPLES = 500


@dataclass(frozen=True)
class PathBundle:
    """Simulated Brownian increments; the state paths are their running sums.

    Only the increments are kept, ``M * N * 8`` bytes.  :meth:`state`
    rebuilds one step's states, with the bits of ``np.cumsum`` over the
    steps from a zero start; :attr:`states` builds the whole array."""

    T: float
    N: int
    M: int
    seed: int
    increments: np.ndarray  # (M, N)
    diagnostics: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def gate_ok(self) -> bool:
        return self.diagnostics.get("gate_ok", False)

    def state(self, k: int, mark=(0, None)) -> np.ndarray:
        """The states at step ``k``, shape ``(M,)`` (:meth:`states_at`)."""
        return self.states_at([k], mark)[0]

    def states_at(self, steps, mark=(0, None)) -> list:
        """The states at each of the increasing ``steps``, one ``(M,)``
        array each: zeros at step 0, else ``np.cumsum``'s left-to-right
        running sum of each path's increments before the step, which starts
        from the first increment itself (a -0.0 stays -0.0).  One pass over
        chunks of ``STATE_CHUNK`` paths carries the sum from step to step
        while the chunk's increments are in cache.  ``mark = (j, states at
        step j)``, ``j`` at most the first step, resumes the sum there, with
        the same bits."""
        j, start = mark
        outs = [np.zeros(self.M) if k == 0 else np.empty(self.M) for k in steps]
        for lo in range(0, self.M, STATE_CHUNK):
            inc = self.increments[lo:lo + STATE_CHUNK]
            run, at = (inc[:, 0], 1) if j == 0 else (start[lo:lo + STATE_CHUNK], j)
            for k, out in zip(steps, outs):
                if k:
                    rows = out[lo:lo + STATE_CHUNK]
                    rows[...] = run
                    for i in range(at, k):
                        rows += inc[:, i]
                    run, at = rows, k
        return outs

    @property
    def states(self) -> np.ndarray:
        """Every step's states, shape ``(M, N + 1)``, built on each read:
        no solver or writer reads it."""
        states = np.zeros((self.M, self.N + 1))
        np.cumsum(self.increments, axis=1, out=states[:, 1:])
        return states


def simulate_paths(T: float, N: int, M: int, seed: int) -> PathBundle:
    """Simulate ``M`` independent Brownian paths.

    Path ``i`` draws its normals from Philox keyed by ``(seed, i)`` alone.
    With two usable CPUs and at least ``lattice.SPLIT_MIN`` paths
    (:func:`lattice._in_two`), a forked child draws paths ``[M/2, M)`` into
    the shared increments buffer, so the bits are those of the serial loop;
    scaling and the gate diagnostics then run here, once over the whole
    bundle.  No states are stored: :meth:`PathBundle.state` rebuilds a
    step's states from the increments."""
    if N < 1:
        raise ValueError("step count must be positive")
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if M < 100:
        raise ValueError("at least 100 paths are required")
    dt = T / N
    # shared with a forked child, which draws its rows in place
    increments = np.frombuffer(mmap.mmap(-1, M * N * 8), dtype=float).reshape(M, N)

    def draw(lo, hi):
        # one generator re-keyed per path: Philox key words (low, high) =
        # (path, seed); the state setter reads plain int lists faster than
        # the arrays the getter returns
        bits = np.random.Philox(key=0)
        normal = np.random.Generator(bits).standard_normal
        state = bits.state
        key = [0, int(seed) & ((1 << 64) - 1)]
        state.update(state={"counter": [0, 0, 0, 0], "key": key}, buffer=[0, 0, 0, 0])
        for i, row in enumerate(increments[lo:hi], lo):
            key[0] = i
            bits.state = state
            normal(out=row)

    _in_two(M, draw)
    increments *= math.sqrt(dt)

    mean = float(increments.mean())
    var = float(increments.var())
    mean_gate = abs(mean) <= 3.0 / math.sqrt(M)
    var_gate = abs(var - dt) <= 0.1 * dt
    diagnostics = {
        "increment_mean": mean,
        "increment_var": var,
        "mean_gate_ok": mean_gate,
        "var_gate_ok": var_gate,
        "gate_ok": mean_gate and var_gate,
    }
    return PathBundle(float(T), int(N), int(M), int(seed), increments, diagnostics)


# ----------------------------------------------------------------------
# regression bases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionBasis:
    """Cross-sectional basis: the powers ``1, x, ..., x**degree`` of the
    state.  Degree 0 is a constant regression; a negative degree is a
    ``ValueError``."""

    degree: int = 3

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"basis degree must be >= 0, got {self.degree}")

    def design(self, states: np.ndarray) -> np.ndarray:
        """Design matrix at one time slice; states has shape (M,)."""
        return np.column_stack([np.ones(len(states))]
                               + [states ** e for e in range(1, self.degree + 1)])


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

    terminal: Callable                      # states (M,) -> values (M,)
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


def write_bundle_csv(path, bundle: PathBundle) -> None:
    """Path dump through ``lattice._write_table``: one row per (path, step),
    ``coord`` always 0.  A chunk rebuilds the states of the paths it touches
    (steps 1 .. N, the bits of ``PathBundle.state``), so it may cut a path."""
    n = bundle.N
    steps = _text(b"%d", range(n))

    def cells(start, stop):
        first, last = start // n, -(-stop // n)  # the paths the chunk touches
        inc = bundle.increments[first:last]
        path, k = np.divmod(np.arange(start, stop), n)
        rows = slice(start - first * n, stop - first * n)
        return [_text(b"%d", range(first, last))[path - first], steps[k], np.full(k.size, b"0"),
                _float_cells(inc.reshape(-1)[rows]),
                _float_cells(np.cumsum(inc, axis=1).reshape(-1)[rows])]

    _write_table(path, ["path", "k", "coord", "dB", "state"], bundle.increments.size, cells)


def write_mc_sidecar(path, result: "McResult") -> None:
    """Estimate sidecar: seed, basis spec and diagnostics."""
    _write_json(path, {
        "y0": result.y0,
        "stderr": result.stderr,
        "seed": result.seed,
        "scheme": result.scheme,
        "basis_degree": result.basis.degree,
        "max_condition": result.max_condition,
        "condition_warning": result.condition_warning,
        "flat_off_lower": result.flat_off_lower,
        "flat_off_upper": result.flat_off_upper,
        "bootstrap_samples": BOOTSTRAP_SAMPLES,
    })


def _finite(values, what: str, k: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise PathDataError(f"{what} is not finite on path {int(np.argmax(bad))} at step {k}")
    return values


def _states_down(paths: PathBundle):
    """``at(k)``: the states at step ``k`` (:meth:`PathBundle.state`), for
    ``k`` taken in any order.  The first call keeps the running sum at every
    ``ceil(sqrt(N))``-th step, and each call resumes from the last mark at
    or below ``k``: about ``sqrt(N)`` arrays of ``M`` floats kept, and
    fewer than ``sqrt(N)`` steps added per call."""
    every = math.isqrt(paths.N - 1) + 1
    marks = [(0, None)]

    def at(k):
        if len(marks) == 1:
            steps = range(every, paths.N, every)
            marks.extend(zip(steps, paths.states_at(steps)))
        return paths.state(k, marks[min(k // every, len(marks) - 1)])

    return at


def mc_terminal(paths: PathBundle, problem: McProblem) -> np.ndarray:
    """Terminal data per path, checked for shape, for the obstacle order the
    lattice solvers also require, and for finite terminal and obstacle
    values at every path step, one step at a time (:class:`PathDataError`).
    One walk over the steps, with a walker of its own (:func:`_states_down`),
    checks both obstacles at each step; its marks are freed on return."""
    state_at = _states_down(paths)
    ends = state_at(paths.N)
    term = np.asarray(problem.terminal(ends), dtype=float)
    if term.shape != (paths.M,):
        raise PathDataError("terminal function must return one value per path")
    _finite(term, "terminal data", paths.N)
    sides = [(side, fn) for side, fn in (("lower", problem.lower), ("upper", problem.upper))
             if fn is not None]
    for k in range(paths.N if sides else 0):
        states = state_at(k)
        for side, fn in sides:
            _finite(fn(paths.dt * k, states), f"{side} obstacle", k)
    for side, fn in sides:
        rail = _finite(fn(paths.T, ends), f"{side} obstacle", paths.N)
        if np.any(rail > term if side == "lower" else term > rail):
            raise PathDataError(f"terminal data {'below' if side == 'lower' else 'above'} "
                                f"the {side} obstacle on a path")
    return term


def solve_mc(
    paths: PathBundle,
    problem: McProblem,
    g: Generator,
    basis: RegressionBasis = RegressionBasis(),
    scheme: str = "explicit",
) -> McResult:
    """Backward induction on simulated paths with regression projections.

    The standard error is bootstrapped (``BOOTSTRAP_SAMPLES`` resamples)
    from up to ``BATCHES`` disjoint path batches re-solved end to end, so it
    sees the regression-stage noise, not just the final averaging.

    Batch ``b`` is bundle rows ``[b*size, (b+1)*size)``.  One backward loop
    advances the bundle and all batches together on each step's shared design
    and obstacle values; the driver and the reflection are elementwise, so one
    call on all batch rows gives each batch the bits of its own solve, and a
    :class:`FixedPointError` names the path by its index in the bundle.

    Each step's states are rebuilt from the increments (:func:`_states_down`),
    and the design depends on them alone and has one column per power, so
    :func:`lattice._ahead` takes both off the loop: with at least
    ``lattice.SPLIT_MIN`` paths and two usable CPUs, a child forked before
    :func:`mc_terminal`'s scan (one walk over the steps, on a walker of its
    own) builds each step's states and design up to two steps ahead into a
    shared buffer, which the loop only reads.  The
    child calls no BLAS, writes no file and leaves only through
    ``os._exit``; if it dies, this process builds the remaining steps, with
    the same bits; smaller bundles build each step here.  No child outlives
    the call, whether it returns or raises, the scan's
    :class:`PathDataError` included.  A batch regresses on its rows of the
    bundle's design, whose columns are elementwise in the states.

    The driver is ``g.fn(t, state, y, z)`` with ``state`` and ``z`` of shape
    ``(M,)``.  Bad terminal or obstacle data raises :class:`PathDataError`.
    """
    if g.stop_rule is not None:
        raise ValueError("stopped drivers follow lattice nodes: no path backend")
    M, N = paths.M, paths.N
    dt = paths.dt
    max_cond = 1.0
    flat_lower = 0.0
    flat_upper = 0.0

    def rails(t, states):
        return tuple(None if fn is None else np.asarray(fn(t, states), dtype=float)
                     for fn in (problem.lower, problem.upper))

    def targets(values, db):
        return np.column_stack([values, values * db / dt])

    def advance(fitted, k, states, low, up):
        """Driver update from the fitted (E, Z) columns, then the reflection."""

        def driver(y):
            return np.asarray(g.fn(dt * k, states, y, fitted[:, 1]), dtype=float)

        cand = _driver_update(driver, fitted[:, 0], dt, g.lam_plus, scheme, k)
        return _reflect(cand, low, up, dt)

    def book(out, low, up, dk, dj):
        nonlocal flat_lower, flat_upper
        if low is not None:
            flat_lower = max(flat_lower, float(np.max(np.abs((out - low) * dk))))
        if up is not None:
            flat_upper = max(flat_upper, float(np.max(np.abs((up - out) * dj))))

    state_at = _states_down(paths)

    def build(k):
        states = state_at(k)
        return states, basis.design(states)

    # states and design depend on the increments alone, so a child can
    # build them ahead
    steps = range(N - 1, 0, -1)
    with _ahead(steps, build, ((M,), (M, 1 + basis.degree))) as built:
        v = mc_terminal(paths, problem)  # the child builds the first steps meanwhile
        n_batches = max(2, min(BATCHES, M // 100))
        size = M // n_batches
        used = n_batches * size
        batch_v = v[:used]
        for k, (states, design) in zip(steps, built):
            db = np.ascontiguousarray(paths.increments[:, k])
            low, up = rails(dt * k, states)
            fitted, cond = _project(design, targets(v, db))
            max_cond = max(max_cond, cond)
            v, dk, dj = advance(fitted, k, states, low, up)
            book(v, low, up, dk, dj)
            del fitted, dk, dj
            # the batches: one regression each, written back in place
            fitted = targets(batch_v, db[:used])
            del db  # the contiguous copy is not held through the batch pass
            for lo in range(0, used, size):
                rows = slice(lo, lo + size)
                fitted[rows] = _project(design[rows], fitted[rows])[0]
            batch_v = advance(fitted, k, states[:used], *(None if r is None else r[:used]
                                                           for r in (low, up)))[0]

    # root: every path shares the state, plain averages are exact
    origin = np.zeros(1)
    low, up = rails(0.0, origin)
    inc = np.ascontiguousarray(paths.increments[:, :1])

    def root(values, inc):
        e0 = np.array([float(values.mean())])
        z0 = values @ inc / (dt * values.size)
        return advance(np.column_stack([e0, z0]), 0, origin, low, up)

    out, dk, dj = root(v, inc)
    book(out, low, up, dk, dj)
    y0 = float(out[0])
    batch_vals = np.array([float(root(batch_v[lo:lo + size], inc[lo:lo + size])[0][0])
                           for lo in range(0, used, size)])
    rng = np.random.default_rng(paths.seed ^ 0x5EED_B00F)
    resampled = rng.integers(0, n_batches, size=(BOOTSTRAP_SAMPLES, n_batches))
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
    )
