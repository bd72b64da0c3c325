"""Drivers ``g(t, state, y, z)`` with their declared regularity constants.

A driver travels with the constants the rest of the library keys guards on:

* ``kappa``  -- Lipschitz bound in ``z`` and the ``|y|`` growth slope,
* ``lam``    -- one-sided monotonicity bound in ``y`` (any sign),
* ``alpha``  -- growth exponent in ``(0, 1)`` for the ``z``-increment bound,
* ``h``      -- nonnegative bound on ``|g(t, ., y, 0)| - kappa |y|``; a
  constant, a callable ``(t, state)``, or an adapted process.

Declared constants are never re-derived; :func:`check_hypotheses` samples
them and reports counterexamples.  A "pass" is the absence of a sampled
counterexample, not a proof.

Evaluation functions must accept numpy arrays for ``state``, ``y`` and
``z`` and broadcast (solvers evaluate whole time slices at once).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .lattice import FULL_TREE, AdaptedProcess, Lattice, StoppingRule


@dataclass(frozen=True)
class Generator:
    fn: Callable  # (t, state, y, z) -> value, numpy-broadcastable
    kappa: float
    lam: float
    alpha: float = 0.5
    h: object = 0.0
    name: str = "custom"
    stop_rule: Optional[StoppingRule] = None

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    def __call__(self, t, state, y, z):
        return self.fn(t, state, y, z)

    @property
    def lam_plus(self) -> float:
        return max(self.lam, 0.0)

    def h_value(self, t, state):
        if isinstance(self.h, AdaptedProcess):
            raise TypeError("adapted-process h is sampled on lattice nodes only")
        if callable(self.h):
            return self.h(t, state)
        return float(self.h)

    def step_mask(self, lattice: Lattice) -> list[np.ndarray]:
        """Per-node multiplier realizing the attached stopping rule.

        The driver stays active at the stopping node itself and vanishes
        strictly after it (the indicator of "current time <= stop time").
        """
        if self.stop_rule is None:
            return [np.ones(lattice.n_nodes(k)) for k in range(lattice.N + 1)]
        return [a.astype(float) for a in self._active(lattice)]

    def _active(self, lattice: Lattice) -> list[np.ndarray]:
        """Boolean form of :meth:`step_mask` for a stopped driver."""
        rule = self.stop_rule
        if not lattice.same_grid(rule.lattice):
            raise ValueError("stopping rule lives on a different lattice")
        if lattice.mode != FULL_TREE and not rule.is_deterministic():
            raise ValueError(
                "path-dependent stopping rules need the full-tree backend"
            )
        return rule.not_yet_stopped()


def _obstacle_lookup(obstacle: AdaptedProcess):
    """(t, state) -> obstacle value, resolved through the obstacle's lattice.

    Used only by the generator-level penalty closures
    :func:`penalize_lower` and :func:`penalize_upper`; solvers read
    obstacles straight off their node arrays.
    Obstacles must be state-resolvable: nodes sharing a state share a value.
    """
    lat = obstacle.lattice
    tables = []
    for k in range(lat.N + 1):
        st = lat.states(k)
        order = np.argsort(st, kind="stable")
        tables.append((st[order], obstacle[k][order]))

    def look(t, state):
        t_arr, s_arr = np.broadcast_arrays(
            np.asarray(t, dtype=float), np.asarray(state, dtype=float)
        )
        ks = np.clip(np.rint(t_arr / lat.dt).astype(np.int64), 0, lat.N)
        out = np.empty(s_arr.shape)
        for k in np.unique(ks):
            st, vals = tables[k]
            sel = ks == k
            idx = np.clip(
                np.searchsorted(st, s_arr[sel] - 1e-9 * lat.sqrt_dt), 0, st.size - 1
            )
            out[sel] = vals[idx]
        return out if out.ndim else float(out)

    return look


def penalize_lower(g: Generator, obstacle: AdaptedProcess, n: float) -> Generator:
    """Add ``n * (y - L_t)^-``: the driver pushing y up toward the obstacle."""
    if n < 0:
        raise ValueError("penalty level must be nonnegative")
    if g.stop_rule is not None:
        raise ValueError("penalizing a stopped driver is not supported")
    if n == 0:
        return g
    look = _obstacle_lookup(obstacle)
    base = g.fn

    def fn(t, state, y, z):
        return base(t, state, y, z) + n * np.maximum(look(t, state) - y, 0.0)

    return replace(
        g, fn=fn, lam=g.lam_plus + n, name=f"{g.name}+pen_low({n:g})"
    )


def penalize_upper(g: Generator, obstacle: AdaptedProcess, n: float) -> Generator:
    """Subtract ``n * (y - U_t)^+``: the driver pushing y down toward the obstacle."""
    if n < 0:
        raise ValueError("penalty level must be nonnegative")
    if g.stop_rule is not None:
        raise ValueError("penalizing a stopped driver is not supported")
    if n == 0:
        return g
    look = _obstacle_lookup(obstacle)
    base = g.fn

    def fn(t, state, y, z):
        return base(t, state, y, z) - n * np.maximum(y - look(t, state), 0.0)

    return replace(
        g, fn=fn, lam=g.lam_plus + n, name=f"{g.name}+pen_up({n:g})"
    )


def negate_reflect(g: Generator) -> Generator:
    """Mirror driver ``(t, s, y, z) -> -g(t, s, -y, -z)``; an involution."""
    base = g.fn

    def fn(t, state, y, z):
        return -base(t, state, -np.asarray(y), -np.asarray(z))

    name = g.name[4:-1] if g.name.startswith("neg(") and g.name.endswith(")") else f"neg({g.name})"
    return replace(g, fn=fn, name=name)


def stop_generator(g: Generator, tau: StoppingRule) -> Generator:
    """Switch the driver off strictly after ``tau`` along each path."""
    rule = tau if g.stop_rule is None else tau.union(g.stop_rule)
    return replace(g, stop_rule=rule, lam=g.lam_plus, name=f"stopped({g.name})")


# ----------------------------------------------------------------------
# hypothesis checking
# ----------------------------------------------------------------------

#: finite-difference cap for the continuity surrogate; differences of a
#: continuous driver on a compact box stay far below this.
H3_FD_CAP = 1e12


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst: float
    counterexample: Optional[tuple] = None


@dataclass(frozen=True)
class HypothesisReport:
    generator: str
    sample_count: int
    results: dict

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results.values())

    def summary(self) -> str:
        lines = [f"hypothesis report for {self.generator} ({self.sample_count} samples)"]
        for name, res in self.results.items():
            verdict = "pass" if res.passed else "counterexample found"
            lines.append(f"  {name}: {verdict} (worst ratio {res.worst:.6g})")
            if res.counterexample is not None:
                lines.append(f"    at (t, state, y, y', z, z') = {res.counterexample}")
        return "\n".join(lines)


DEFAULT_BOX = ((0.0, 1.0), (-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0))


def check_hypotheses(
    g: Generator,
    sample_count: int,
    box=DEFAULT_BOX,
    seed: int = 0,
    lattice: Optional[Lattice] = None,
    tol: float = 1e-9,
) -> HypothesisReport:
    """Sample the declared bounds of ``g`` on a box of ``(t, state, y, z)``.

    The continuity requirement in ``y`` is not falsifiable by sampling; it
    is checked as finite differences staying bounded on the box, which is a
    documented surrogate.  When ``g.h`` is an adapted process a lattice must
    be supplied and ``(t, state)`` are drawn from its nodes.  A NaN margin
    is a counterexample.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    (t0, t1), (s0, s1), (y0, y1), (z0, z1) = box

    m = int(sample_count)
    if isinstance(g.h, AdaptedProcess):
        if lattice is None:
            lattice = g.h.lattice
        ks = rng.integers(0, lattice.N + 1, size=m)
        js = np.array([rng.integers(0, lattice.n_nodes(k)) for k in ks])
        t = ks * lattice.dt
        state = np.array([lattice.states(k)[j] for k, j in zip(ks, js)])
        hvals = np.array([g.h[k][j] for k, j in zip(ks, js)])
    else:
        t = rng.uniform(t0, t1, size=m)
        state = rng.uniform(s0, s1, size=m)
        hvals = np.asarray(g.h_value(t, state)) * np.ones(m)
    y = rng.uniform(y0, y1, size=m)
    yp = rng.uniform(y0, y1, size=m)
    z = rng.uniform(z0, z1, size=m)
    zp = rng.uniform(z0, z1, size=m)

    def tup(i, use_yp=True, use_zp=True):
        return (
            float(t[i]), float(state[i]), float(y[i]),
            float(yp[i]) if use_yp else None,
            float(z[i]), float(zp[i]) if use_zp else None,
        )

    results: dict[str, CheckResult] = {}

    def record(name, margins, which):
        # a NaN margin is a counterexample: max and argmax both stop at NaN
        worst = float(np.max(margins))
        if not worst <= tol:
            i = int(np.argmax(margins))
            results[name] = CheckResult(False, worst, which(i))
        else:
            results[name] = CheckResult(True, worst)

    gv = g.fn
    # H1: Lipschitz in z
    m1 = np.abs(gv(t, state, y, z) - gv(t, state, y, zp)) - g.kappa * np.abs(z - zp)
    record("H1", m1, lambda i: tup(i, use_yp=False))

    # H2: one-sided monotonicity in y
    m2 = np.sign(y - yp) * (gv(t, state, y, z) - gv(t, state, yp, z)) - g.lam * np.abs(y - yp)
    record("H2", m2, lambda i: tup(i, use_zp=False))

    # H3 surrogate: finite differences in y stay bounded
    delta = 1e-6 * (1.0 + np.abs(y))
    fd = np.abs(gv(t, state, y + delta, z) - gv(t, state, y, z)) / delta
    fd_worst = float(np.max(fd))
    ok3 = bool(np.all(np.isfinite(fd)) and fd_worst <= H3_FD_CAP)
    results["H3"] = CheckResult(
        ok3, fd_worst, None if ok3 else tup(int(np.argmax(fd)), use_yp=False, use_zp=False)
    )

    # H4: growth of g(., y, 0)
    m4 = np.abs(gv(t, state, y, np.zeros(m))) - hvals - g.kappa * np.abs(y)
    record("H4", m4, lambda i: tup(i, use_yp=False, use_zp=False))

    # H5: z-increment growth of order alpha
    m5 = (
        np.abs(gv(t, state, y, z) - gv(t, state, y, np.zeros(m)))
        - g.kappa * (hvals + np.abs(y) + np.abs(z)) ** g.alpha
    )
    record("H5", m5, lambda i: tup(i, use_yp=False, use_zp=False))

    return HypothesisReport(g.name, m, results)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def _zero():
    return Generator(lambda t, s, y, z: np.zeros(np.broadcast(s, y, z).shape),
                     kappa=1.0, lam=0.0, alpha=0.5, h=0.0, name="zero")


def _constant(c: float):
    return Generator(
        lambda t, s, y, z, _c=float(c): np.full(np.broadcast(s, y, z).shape, _c),
        kappa=1.0, lam=0.0, alpha=0.5, h=abs(float(c)), name=f"constant:{c:g}",
    )


def _linear(a: float, b: float):
    kappa = max(abs(a), abs(b), 1e-12)
    return Generator(
        lambda t, s, y, z, _a=float(a), _b=float(b): _a * np.asarray(y) + _b * np.asarray(z),
        kappa=kappa, lam=float(a), alpha=0.5, h=0.0, name=f"linear:{a:g},{b:g}",
    )


class TabulatedDriver:
    """Driver tabulated on a rectangular (t, state, y, z) grid.

    Evaluation is multilinear interpolation with clamping outside the grid.
    Files are ``.npz`` archives with 1-D axes ``t, state, y, z``, a 4-D
    ``values`` array, and scalars ``kappa, lam, alpha, h``.  Values must be
    finite.

    Only the live axes (more than one knot) are interpolated, so one call
    gathers ``2**live`` corners from the flattened table.  A one-knot axis
    would contribute the factor 1 and upper corners of weight 0; leaving
    those out changes no bit because the table is finite (``0 * inf`` would
    be NaN) and the sum starts at +0.0, which adding +-0.0 never changes.
    """

    def __init__(self, axes, values):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.ascontiguousarray(values, dtype=float)
        shape = tuple(a.size for a in self.axes)
        if self.values.shape != shape:
            raise ValueError("value grid does not match axes")
        for a in self.axes:
            if a.size < 1 or np.any(np.diff(a) <= 0):
                raise ValueError("axes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("driver table values must be finite")
        # element strides of the C-ordered copy, never of the array given
        # (a broadcast table has stride 0, a transposed one other strides)
        live = [d for d, a in enumerate(self.axes) if a.size > 1]
        strides = [int(np.prod(shape[d + 1:])) for d in live]
        self._live = [
            (d, self.axes[d][1:-1], self.axes[d], np.diff(self.axes[d]), stride)
            for d, stride in zip(live, strides)
        ]
        # corner c takes the upper knot on live axis b when bit b of c is set:
        # the corner order of the full 16-corner sum with dead corners left out
        flat = self.values.ravel()
        self._corners = [
            flat[sum(s for b, s in enumerate(strides) if c >> b & 1):]
            for c in range(1 << len(live))
        ]

    def __call__(self, t, state, y, z):
        coords = [np.asarray(c, dtype=float) for c in (t, state, y, z)]
        out = np.zeros(np.broadcast(*coords).shape)
        base, factors = 0, []
        for d, inner, axis, gaps, stride in self._live:
            c = coords[d]
            # knots <= c among the inner ones: the lower knot of the cell,
            # already clamped to the first and the last cell (NaN: the last)
            lo = inner.searchsorted(c, side="right")
            w = ((c - axis[lo]) / gaps[lo]).clip(0.0, 1.0)
            factors.append((1.0 - w, w))
            base = base + lo * stride
        for corner, table in enumerate(self._corners):
            weight = None
            for b, pair in enumerate(factors):
                f = pair[corner >> b & 1]
                weight = f if weight is None else weight * f
            gathered = table[base]
            out += gathered if weight is None else weight * gathered
        return out


def load_driver_file(path) -> Generator:
    data = np.load(path)
    fn = TabulatedDriver(
        (data["t"], data["state"], data["y"], data["z"]), data["values"]
    )
    return Generator(
        fn,
        kappa=float(data["kappa"]),
        lam=float(data["lam"]),
        alpha=float(data["alpha"]),
        h=float(data["h"]),
        name="driver-file",
    )


def registry_generator(spec: str) -> Generator:
    """Resolve a named driver: ``zero``, ``constant:c``, ``linear:a,b``,
    or ``driver-file:<path>``."""
    name, _, args = spec.partition(":")
    if name == "zero":
        return _zero()
    if name == "constant":
        return _constant(float(args))
    if name == "linear":
        a, b = (float(x) for x in args.split(","))
        return _linear(a, b)
    if name == "driver-file":
        return load_driver_file(args)
    raise ValueError(f"unknown generator spec {spec!r}")
