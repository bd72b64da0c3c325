"""Discrete Brownian models and the exact expectation operators built on them.

Two backends share one indexing contract:

* ``recombining`` random walk: step ``k`` has nodes ``j = 0..k`` (``j`` counts
  up-moves) carrying the state ``(2j - k) * sqrt(dt)``;
* ``full-tree``: step ``k`` has the ``2**k`` up/down words of length ``k``,
  read most-significant-bit first with bit 1 = up.  The bit word is the
  node id, so a node is a whole path prefix.

Node values are stored as one numpy array per time step.  Both backends
expose the same child-split and child-spread primitives, which keeps every
solver upstream backend agnostic.  Each step is ``+sqrt(dt)`` or
``-sqrt(dt)`` with probability one half, so one-step conditional
expectations are plain two-point averages and carry no quadrature error.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

RECOMBINING = "recombining"
FULL_TREE = "full-tree"

# 2**25 - 1 nodes; beyond this the full tree stops being an "exact oracle"
# and starts being a memory problem.
FULL_TREE_MAX_N = 24

_F17 = "{:.17g}".format


class Lattice:
    """Discrete-time Brownian model on ``[0, T]`` with ``N`` equal steps."""

    def __init__(self, T: float, N: int, mode: str = RECOMBINING):
        if not (T > 0.0) or not math.isfinite(T):
            raise ValueError(f"horizon must be a positive finite real, got {T}")
        if int(N) != N or N < 1:
            raise ValueError(f"step count must be an integer >= 1, got {N}")
        if mode not in (RECOMBINING, FULL_TREE):
            raise ValueError(f"unknown lattice mode {mode!r}")
        if mode == FULL_TREE and N > FULL_TREE_MAX_N:
            raise ValueError(
                f"full-tree mode supports N <= {FULL_TREE_MAX_N} "
                f"(2**{N + 1}-1 nodes requested)"
            )
        self.T = float(T)
        self.N = int(N)
        self.mode = mode
        self.dt = self.T / self.N
        self.sqrt_dt = math.sqrt(self.dt)
        self._states: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def n_nodes(self, k: int) -> int:
        self._check_step(k)
        return k + 1 if self.mode == RECOMBINING else 1 << k

    @property
    def total_nodes(self) -> int:
        if self.mode == RECOMBINING:
            return (self.N + 1) * (self.N + 2) // 2
        return (1 << (self.N + 1)) - 1

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt

    def time(self, k: int) -> float:
        return k * self.dt

    def states(self, k: int) -> np.ndarray:
        """State values of the step-``k`` nodes, in index order."""
        self._check_step(k)
        cached = self._states.get(k)
        if cached is not None:
            return cached
        if self.mode == RECOMBINING:
            st = (2.0 * np.arange(k + 1) - k) * self.sqrt_dt
        elif k == 0:
            st = np.zeros(1)
        else:
            prev = self.states(k - 1)
            st = np.empty(1 << k)
            st[0::2] = prev - self.sqrt_dt   # bit 0 = down
            st[1::2] = prev + self.sqrt_dt   # bit 1 = up
        st.flags.writeable = False
        self._states[k] = st
        return st

    def node_ids(self, k: int, start: int = 0, stop: int | None = None):
        """Serialization ids of the step-``k`` nodes ``start..stop-1``:
        up-count ``j`` (recombining) or the bit word (full tree)."""
        if stop is None:
            stop = self.n_nodes(k)
        if self.mode == RECOMBINING:
            return list(map(str, range(start, stop)))
        if k == 0:
            return [""] * (stop - start)
        # 2**low consecutive words differ only in their last low bits
        low = min(k, 8)
        tails = [format(q, f"0{low}b") for q in range(1 << low)]
        heads = [format(h, f"0{k - low}b") if k > low else ""
                 for h in range(start >> low, (stop + (1 << low) - 1) >> low)]
        skip = start & ((1 << low) - 1)
        return [h + t for h in heads for t in tails][skip:skip + stop - start]

    def split_children(self, next_values: np.ndarray):
        """Split step-``k+1`` values into (down, up) children per step-``k`` node.

        Nodes run along the last axis; leading axes are batch axes.
        """
        if self.mode == RECOMBINING:
            return next_values[..., :-1], next_values[..., 1:]
        return next_values[..., 0::2], next_values[..., 1::2]

    def spread_to_children(self, values: np.ndarray) -> np.ndarray:
        """Push step-``k`` node values down to the step-``k+1`` children.

        On the full tree each child repeats its one parent's value.  A
        recombining child has two parents, so only boolean flags spread:
        a child is flagged when either parent is.
        """
        if self.mode == FULL_TREE:
            return np.repeat(values, 2)
        out = np.zeros(values.size + 1, dtype=bool)
        out[:-1] |= values
        out[1:] |= values
        return out

    def terminal_weights(self) -> np.ndarray:
        """Probability mass of the terminal nodes (path multiplicity included)."""
        if self.mode == RECOMBINING:
            w = np.array([math.comb(self.N, j) for j in range(self.N + 1)], dtype=float)
            return w / 2.0 ** self.N
        return np.full(1 << self.N, 2.0 ** -self.N)

    def up_counts(self, k: int) -> np.ndarray:
        """Number of up-moves per step-``k`` node (maps tree nodes onto (k, j))."""
        self._check_step(k)
        if self.mode == RECOMBINING:
            return np.arange(k + 1)
        ups = np.zeros(1, dtype=np.int64)
        for _ in range(k):
            nxt = np.empty(2 * ups.size, dtype=np.int64)
            nxt[0::2] = ups
            nxt[1::2] = ups + 1
            ups = nxt
        return ups

    def _check_step(self, k: int) -> None:
        if not 0 <= k <= self.N:
            raise ValueError(f"step {k} out of range [0, {self.N}]")

    def same_grid(self, other: "Lattice") -> bool:
        return (
            self.mode == other.mode and self.N == other.N and self.T == other.T
        )

    def __repr__(self):
        return f"Lattice(T={self.T}, N={self.N}, mode={self.mode!r})"


def build_lattice(T: float, N: int, mode: str = RECOMBINING) -> Lattice:
    """Build a discrete Brownian model; states are reproducible bit-exactly."""
    return Lattice(T, N, mode)


# ----------------------------------------------------------------------
# node-indexed data
# ----------------------------------------------------------------------


def _freeze(arrays) -> tuple[np.ndarray, ...]:
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        a.flags.writeable = False
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class AdaptedProcess:
    """One real value per lattice node; adapted by construction."""

    lattice: Lattice
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.values) != self.lattice.N + 1:
            raise ValueError("process must carry one array per time step")
        for k, arr in enumerate(self.values):
            if arr.shape != (self.lattice.n_nodes(k),):
                raise ValueError(f"step {k}: expected {self.lattice.n_nodes(k)} values")
        object.__setattr__(self, "values", _freeze(self.values))

    @classmethod
    def from_function(cls, lattice: Lattice, fn) -> "AdaptedProcess":
        """Tabulate ``fn(t, state)`` at every node (fn must broadcast)."""
        vals = [
            np.broadcast_to(
                np.asarray(fn(lattice.time(k), lattice.states(k)), dtype=float),
                (lattice.n_nodes(k),),
            ).copy()
            for k in range(lattice.N + 1)
        ]
        return cls(lattice, tuple(vals))

    @classmethod
    def constant(cls, lattice: Lattice, c: float) -> "AdaptedProcess":
        return cls.from_function(lattice, lambda t, s: np.full_like(s, float(c)))

    @classmethod
    def from_terminal(cls, payoff: "TerminalPayoff", fill: float = math.nan) -> "AdaptedProcess":
        """Lift terminal data to a process; pre-terminal nodes get ``fill``."""
        lat = payoff.lattice
        vals = [np.full(lat.n_nodes(k), fill) for k in range(lat.N)]
        vals.append(np.asarray(payoff.values, dtype=float))
        return cls(lat, tuple(vals))

    def __getitem__(self, k: int) -> np.ndarray:
        return self.values[k]

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.values)

    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True)
class TerminalPayoff:
    """Real data on the terminal nodes only."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.lattice.n_nodes(self.lattice.N),):
            raise ValueError("terminal payoff must cover every terminal node")
        if not np.all(np.isfinite(v)):
            raise ValueError("terminal payoff must be finite at every node")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, lattice: Lattice, fn) -> "TerminalPayoff":
        s = lattice.states(lattice.N)
        return cls(lattice, np.broadcast_to(np.asarray(fn(s), dtype=float), s.shape).copy())


# ----------------------------------------------------------------------
# exact one-step operators
# ----------------------------------------------------------------------


def conditional_expectation(lattice: Lattice, k: int, next_values: np.ndarray) -> np.ndarray:
    """Step-``k`` conditional expectation of step-``k+1`` values (child average)."""
    _check_next(lattice, k, next_values)
    down, up = lattice.split_children(np.asarray(next_values, dtype=float))
    return 0.5 * (down + up)


def martingale_increment(lattice: Lattice, k: int, next_values: np.ndarray) -> np.ndarray:
    """Integrand of the one-step martingale part: ``(up - down) / (2 sqrt(dt))``."""
    _check_next(lattice, k, next_values)
    down, up = lattice.split_children(np.asarray(next_values, dtype=float))
    return (up - down) / (2.0 * lattice.sqrt_dt)


def _check_next(lattice: Lattice, k: int, next_values) -> None:
    lattice._check_step(k)
    if k == lattice.N:
        raise ValueError("no successors past the horizon")
    if np.shape(next_values) != (lattice.n_nodes(k + 1),):
        raise ValueError(
            f"expected {lattice.n_nodes(k + 1)} values at step {k + 1}, "
            f"got shape {np.shape(next_values)}"
        )


def conditional_expectation_chain(lattice: Lattice, xi) -> AdaptedProcess:
    """All conditional expectations of terminal data, composed step by step."""
    term = xi.values if isinstance(xi, TerminalPayoff) else np.asarray(xi, dtype=float)
    vals: list[np.ndarray] = [term]
    for k in range(lattice.N - 1, -1, -1):
        vals.append(conditional_expectation(lattice, k, vals[-1]))
    vals.reverse()
    return AdaptedProcess(lattice, tuple(vals))


# ----------------------------------------------------------------------
# stopping rules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingRule:
    """Adapted stop/continue decision: a path stops at its first flagged node.

    Every terminal node is flagged, so the rule always stops by the horizon.
    Interior flags shadowed by an earlier flag on every path are irrelevant;
    :meth:`canonicalize` clears them.
    """

    lattice: Lattice
    flags: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.flags) != self.lattice.N + 1:
            raise ValueError("rule must carry one flag array per time step")
        frozen = []
        for k, arr in enumerate(self.flags):
            arr = np.asarray(arr, dtype=bool)
            if arr.shape != (self.lattice.n_nodes(k),):
                raise ValueError(f"step {k}: flag array has wrong size")
            frozen.append(arr)
        if not frozen[-1].all():
            raise ValueError("every terminal node must be flagged stop")
        for a in frozen:
            a.flags.writeable = False
        object.__setattr__(self, "flags", tuple(frozen))

    # -- constructors ---------------------------------------------------

    @classmethod
    def horizon(cls, lattice: Lattice) -> "StoppingRule":
        return cls.at_step(lattice, lattice.N)

    @classmethod
    def at_step(cls, lattice: Lattice, k: int) -> "StoppingRule":
        """Deterministic rule stopping every path at step ``k``."""
        lattice._check_step(k)
        flags = [np.zeros(lattice.n_nodes(i), dtype=bool) for i in range(lattice.N + 1)]
        flags[k][:] = True
        flags[lattice.N][:] = True
        return cls(lattice, tuple(flags))

    @classmethod
    def from_region(cls, lattice: Lattice, region) -> "StoppingRule":
        """First entry into a node region.

        ``region`` is a predicate ``(t, states) -> bool array`` or a list of
        boolean arrays per step.
        """
        if callable(region):
            masks = [
                np.broadcast_to(
                    np.asarray(region(lattice.time(k), lattice.states(k)), dtype=bool),
                    (lattice.n_nodes(k),),
                ).copy()
                for k in range(lattice.N + 1)
            ]
        else:
            masks = [np.array(m, dtype=bool) for m in region]
        masks[lattice.N][:] = True
        return cls(lattice, tuple(masks))

    # -- semantics ------------------------------------------------------

    def is_deterministic(self) -> bool:
        """True when each step is uniformly stop or continue."""
        return all(f.all() or not f.any() for f in self.flags)

    def union(self, other: "StoppingRule") -> "StoppingRule":
        """Earliest of the two rules (flag union)."""
        self._check_mate(other)
        return StoppingRule(
            self.lattice, tuple(a | b for a, b in zip(self.flags, other.flags))
        )

    def not_yet_stopped(self) -> list[np.ndarray]:
        """Per node: some path reaches it without an earlier flag.

        On the full tree the path is unique, so this is exactly "no proper
        ancestor is flagged".
        """
        return list(self._reach)

    @cached_property
    def _reach(self) -> tuple[np.ndarray, ...]:
        # cached: every backward step of a stopped driver reads one slice
        reach = [np.ones(1, dtype=bool)]
        for k in range(self.lattice.N):
            reach.append(self.lattice.spread_to_children(reach[k] & ~self.flags[k]))
        for a in reach:
            a.flags.writeable = False
        return tuple(reach)

    def canonicalize(self) -> "StoppingRule":
        """Clear interior flags that no path can reach first."""
        reach = self.not_yet_stopped()
        flags = [f & r for f, r in zip(self.flags, reach)]
        flags[-1] = np.ones(self.lattice.n_nodes(self.lattice.N), dtype=bool)
        return StoppingRule(self.lattice, tuple(flags))

    def pathwise_le(self, other: "StoppingRule") -> bool:
        """True when this rule stops no later than ``other`` on every path."""
        # a path reaching a node unstopped by either rule must not find
        # ``other`` flagged there without this rule
        reach = self.union(other).not_yet_stopped()
        return not any((r & o & ~s).any() for r, o, s in zip(reach, other.flags, self.flags))

    def stop_steps(self) -> np.ndarray:
        """Full tree only: stopping step of the path through each terminal
        node, read-only."""
        if self.lattice.mode != FULL_TREE:
            raise ValueError("per-path stop steps need the full-tree backend")
        return self._stop_steps

    @cached_property
    def _stop_steps(self) -> np.ndarray:
        # cached: payoff_R reads one path per call
        lat = self.lattice
        cur = np.full(1, -1, dtype=np.int64)  # -1: not stopped yet
        if self.flags[0][0]:
            cur[0] = 0
        for k in range(1, lat.N + 1):
            nxt = lat.spread_to_children(cur)
            fresh = (nxt < 0) & self.flags[k]
            nxt[fresh] = k
            cur = nxt
        cur[cur < 0] = lat.N
        cur.flags.writeable = False
        return cur

    def key(self) -> bytes:
        return b"".join(np.packbits(f).tobytes() for f in self.flags)

    def hash_hex(self) -> str:
        return hashlib.sha1(self.key()).hexdigest()[:12]

    def _check_mate(self, other: "StoppingRule") -> None:
        if not self.lattice.same_grid(other.lattice):
            raise ValueError("stopping rules live on different lattices")

    def __eq__(self, other):
        return isinstance(other, StoppingRule) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


# ----------------------------------------------------------------------
# serialization: (k, node-id, state, value) CSV, 17 significant digits
# ----------------------------------------------------------------------

PROCESS_HEADER = ["k", "node-id", "state", "value"]

# rows formatted and written at a time; bounds the text held in memory
DUMP_CHUNK = 4096


def _format_column(values: np.ndarray, memo: dict | None = None) -> list[str]:
    """``{:.17g}`` of each value; each distinct bit pattern (never value:
    ``-0.0``, ``0.0`` and NaN payloads differ) is formatted once or read
    from ``memo``."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    if memo is None:
        text = list(map(_F17, floats))
    else:
        text = [memo.get(b) or memo.setdefault(b, _F17(x))
                for b, x in zip(bits.tolist(), floats)]
    return list(map(text.__getitem__, inverse.tolist()))


def _write_rows(fh, keys, columns) -> None:
    """One ``fh.write`` of ``csv.writer``'s bytes (``\\r\\n`` line ends, no
    field to quote): the key text columns, then the float columns (``None``
    is an empty field)."""
    cells = [repeat("") if c is None else _format_column(c) for c in columns]
    fh.write("\r\n".join(map(",".join, zip(*keys, *cells))) + "\r\n")


def _write_node_dump(path, header, lattice: Lattice, step_columns) -> None:
    """Stream ``k,node-id,state`` and the value columns ``step_columns(k)``
    of every node, ``DUMP_CHUNK`` rows at a time."""
    state_text: dict[int, str] = {}  # few distinct states (2N+1 on the walk)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(lattice.N + 1):
            states, cols, n = lattice.states(k), step_columns(k), lattice.n_nodes(k)
            for start in range(0, n, DUMP_CHUNK):
                stop = min(start + DUMP_CHUNK, n)
                keys = (repeat(str(k)), lattice.node_ids(k, start, stop),
                        _format_column(states[start:stop], state_text))
                _write_rows(fh, keys, [None if c is None else c[start:stop] for c in cols])


def write_process_csv(path, process: AdaptedProcess) -> None:
    _write_node_dump(path, PROCESS_HEADER, process.lattice, lambda k: (process[k],))


def write_lattice_csv(path, lattice: Lattice) -> None:
    """Descriptor dump: same schema as processes with an empty value column."""
    _write_node_dump(path, PROCESS_HEADER, lattice, lambda k: (None,))


def read_process_csv(path, lattice: Lattice) -> AdaptedProcess:
    vals = [np.full(lattice.n_nodes(k), math.nan) for k in range(lattice.N + 1)]
    index = [
        {nid: i for i, nid in enumerate(lattice.node_ids(k))}
        for k in range(lattice.N + 1)
    ]
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != PROCESS_HEADER:
            raise ValueError(f"unexpected header {header}")
        for row in r:
            k = int(row[0])
            vals[k][index[k][row[1]]] = float(row[3])
    return AdaptedProcess(lattice, tuple(vals))
