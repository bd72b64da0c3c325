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
import json
import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RECOMBINING = "recombining"
FULL_TREE = "full-tree"

# 2**25 - 1 nodes; beyond this the full tree stops being an "exact oracle"
# and starts being a memory problem.
FULL_TREE_MAX_N = 24


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

    def node_label(self, k: int, i: int) -> str:
        """``(k=…, id=…)`` of node ``i`` of step ``k``, for error messages."""
        return f"(k={k}, id={self.node_ids(k, i, i + 1)[0]})"

    def node_ids(self, k: int, start: int = 0, stop: int | None = None):
        """Serialization ids of the step-``k`` nodes ``start..stop-1``:
        up-count ``j`` (recombining) or the bit word (full tree), decoded
        from the bytes the dump writers write."""
        if stop is None:
            stop = self.n_nodes(k)
        i = np.arange(start, stop)
        ids = self._id_cells(np.full(i.size, k), i, _text(b"%d", range(self.N + 1)))
        return ids.astype(str).tolist()

    def _id_cells(self, k: np.ndarray, i: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """Ids of the nodes ``i`` of the steps ``k`` as an ``S`` array: on
        the walk ``pool[i]``, where ``pool[j]`` is ``str(j)``; on the full
        tree the bit word's ASCII digits, msb first (the root's is empty)."""
        if self.mode == RECOMBINING:
            return pool[i]
        width = max(int(k.max(initial=0)), 1)
        # each row: the 32 bits of i as ASCII digits, msb first, then NULs;
        # a word's cell starts at its step's first bit
        rows = np.zeros((i.size, 32 + width), np.uint8)
        rows[:, :32] = np.unpackbits(i.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
        rows[:, :32] += ord("0")
        return _windows(rows.reshape(-1), np.arange(32, 32 + i.size * rows.shape[1],
                                                    rows.shape[1]) - k, width)

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
        values = tuple(np.asarray(a, dtype=float) for a in self.values)
        for a in values:
            a.flags.writeable = False
        object.__setattr__(self, "values", values)

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
    def from_terminal(cls, payoff: "TerminalPayoff") -> "AdaptedProcess":
        """Lift terminal data to a process; pre-terminal nodes are NaN."""
        lat = payoff.lattice
        vals = [np.full(lat.n_nodes(k), math.nan) for k in range(lat.N)]
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
        bad = ~np.isfinite(v)
        if bad.any():
            where = self.lattice.node_label(self.lattice.N, int(np.argmax(bad)))
            raise ValueError(f"terminal payoff must be finite at every node, not at {where}")
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
    """Step-``k`` conditional expectation of step-``k+1`` values (child average).

    Nodes run along the last axis; leading axes are batch axes.
    """
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
    if np.shape(next_values)[-1:] != (lattice.n_nodes(k + 1),):
        raise ValueError(
            f"expected {lattice.n_nodes(k + 1)} values at step {k + 1} on the last axis, "
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
        """First entry into a node region, a predicate ``(t, states) -> bool
        array``."""
        masks = [
            np.broadcast_to(
                np.asarray(region(lattice.time(k), lattice.states(k)), dtype=bool),
                (lattice.n_nodes(k),),
            ).copy()
            for k in range(lattice.N + 1)
        ]
        masks[lattice.N][:] = True
        return cls(lattice, tuple(masks))

    # -- semantics ------------------------------------------------------

    def is_deterministic(self) -> bool:
        """True when each step is uniformly stop or continue."""
        return self._deterministic

    @cached_property
    def _deterministic(self) -> bool:
        # cached: every backward step of a stopped driver asks (step_mask)
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
        return self._canonical

    @cached_property
    def _canonical(self) -> "StoppingRule":
        # cached: rule_values canonicalizes the same rule once per table read
        flags = [f & r for f, r in zip(self.flags, self._reach)]
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

# rows assembled and written at a time; bounds the bytes held in memory
DUMP_CHUNK = 4096


def _text(fmt: bytes, values) -> np.ndarray:
    """``fmt % v`` of each value as an ``S`` array, in one formatting call;
    ``b"%.17g"`` gives the bytes of ``"{:.17g}".format``."""
    values = tuple(values)
    return np.array(((fmt + b"\0") * len(values) % values).split(b"\0")[:-1], dtype="S")


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``{:.17g}`` of each value as an ``S`` array; each distinct bit
    pattern (never value: ``-0.0``, ``0.0`` and NaN payloads differ) is
    formatted once per call."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return _cells17(bits)[inverse]


# distinct values in [1e-4, 1e16), where ``%.17g`` writes fixed notation,
# below which ``dtoa.fixed17``'s fixed cost per call exceeds what it saves
# over ``bytes %`` (measured on 2-core x86-64)
FIXED_MIN = 256

# that range as two runs of int64 bit patterns: a negative float's pattern
# grows with its magnitude
_FIXED_RUNS = np.array([-1e-4, -1e16, 1e-4, 1e16]).view(np.int64)


def _cells17(bits: np.ndarray) -> np.ndarray:
    """``{:.17g}`` of the float64 bit patterns ``bits``, sorted as int64,
    as an ``S`` array."""
    runs = np.searchsorted(bits, _FIXED_RUNS)
    if runs[1] - runs[0] + runs[3] - runs[2] < FIXED_MIN:
        return _text(b"%.17g", bits.view(np.float64).tolist())
    # imported here: a run that never needs the kernel never compiles it,
    # which without cached bytecode costs resident memory for the whole run
    from .dtoa import cells17

    return cells17(bits, runs)


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """``buf[s:s + width]`` of the flat uint8 ``buf`` for each ``s`` in
    ``starts``, as an ``S{width}`` array (one gather)."""
    return np.ndarray((max(buf.size - width + 1, 0),), f"S{width}", buf, strides=(1,))[starts]


def _write_rows(fh, cells) -> None:
    """Write ``csv.writer``'s bytes (``\\r\\n`` line ends, no field to
    quote) for rows given by columns of NUL-padded cells, each an ``S``
    array.  The rows are one byte matrix with the separators at fixed
    offsets; no cell holds a NUL byte, so dropping the NULs leaves the text."""
    mats = [c.view(np.uint8).reshape(len(c), -1) for c in cells]
    ends = np.cumsum([m.shape[1] + 1 for m in mats])  # one past each field's separator
    buf = np.zeros((len(cells[0]), ends[-1] + 1), np.uint8)
    for m, end in zip(mats, ends):
        buf[:, end - 1 - m.shape[1]:end - 1] = m
    buf[:, ends - 1] = ord(",")
    buf[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    fh.write(buf[buf != 0])


# items below which a second process costs more than it saves
SPLIT_MIN = 1 << 14


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork or cannot tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _other_cpus() -> set:
    """The usable CPUs other than the one this process last ran on (field
    39 of ``/proc/self/stat``), or all of them where that cannot be read."""
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the fields after the parenthesised command name start at field 3
            here = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return cpus
    return cpus - {here} or cpus


def _fork(child):
    """Fork a child that runs ``child()``; return its pid for the caller to
    reap, or ``None`` when ``fork`` fails.  The child runs on the CPUs that
    :func:`_other_cpus` names (left to the scheduler, it often queues behind
    the caller) and leaves only through ``os._exit``: 0 when ``child()``
    returns, 1 when it raises, never flushing an inherited buffer.  ``child``
    must own its outputs: it calls no BLAS and writes no file the caller has
    open."""
    others = _other_cpus()
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            os.sched_setaffinity(0, others)
            child()
            code = 0
        finally:
            os._exit(code)
    return pid


def _in_two(n: int, work) -> bool:
    """Run ``work(lo, hi)`` over ``[0, n)``; return whether it was split.

    With at least ``SPLIT_MIN`` items and two usable CPUs, a child forked by
    :func:`_fork` runs the upper half ``[n // 2, n)`` while the caller runs
    the lower half, then waits for it; if the child did not exit 0, the
    caller runs the upper half itself.  ``work`` keeps :func:`_fork`'s
    contract.  Otherwise, or when ``fork`` fails, ``work(0, n)`` runs here.
    """
    mid = n // 2
    pid = None if n < SPLIT_MIN or _usable_cpus() < 2 else _fork(lambda: work(mid, n))
    if pid is None:
        work(0, n)
        return False
    try:
        work(0, mid)
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        work(mid, n)
    return True


@contextmanager
def _ahead(steps, build, shapes):
    """Context manager giving an iterator over ``build(k)`` for each ``k`` in
    ``steps``, in order.

    ``build(k)`` returns a tuple of arrays of the fixed ``shapes``.  With
    ``shapes`` whose first has at least ``SPLIT_MIN`` rows, at least two
    steps and two usable CPUs, a child forked by :func:`_fork` on entering
    the context calls ``build(k)`` up to two steps ahead and writes each
    result into one of two slots of a shared anonymous mmap, one contiguous
    block per array, so it works while the caller still runs code ahead of
    its loop.  The caller gets read-only views of the slot's blocks, valid
    until it asks for the next item.  One-byte tokens on two pipes say
    "slot ready" (child to caller) and "slot free" (caller to child).
    ``build`` keeps :func:`_fork`'s contract.  If the child dies (end of
    file on "ready", or a broken pipe on "free"), the caller builds the
    remaining steps itself.  Otherwise, or when ``fork`` fails (its pipes
    are then closed), every ``build(k)`` runs here.  Leaving the context
    closes the pipes and reaps the child, also when the caller raises,
    before its loop or in it.
    """
    steps = list(steps)
    if shapes[0][0] < SPLIT_MIN or len(steps) < 2 or _usable_cpus() < 2:
        yield map(build, steps)
        return
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    slots = np.frombuffer(mmap.mmap(-1, 2 * int(bounds[-1]) * 8), dtype=float).reshape(2, -1)
    blocks = [tuple(slot[a:b].reshape(shape) for a, b, shape in zip(bounds, bounds[1:], shapes))
              for slot in slots]
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()

    def child():
        os.close(ready_r)
        os.close(free_w)
        for i, k in enumerate(steps):
            # slot i % 2 last held step i - 2: wait until it is free
            if i >= 2 and not os.read(free_r, 1):
                break
            for block, part in zip(blocks[i % 2], build(k), strict=True):
                block[...] = part
            os.write(ready_w, b"r")

    pid = _fork(child)
    if pid is None:
        for fd in (ready_r, ready_w, free_r, free_w):
            os.close(fd)
        yield map(build, steps)
        return
    os.close(ready_w)
    os.close(free_r)
    for slot in blocks:  # here only: the child has its own arrays
        for block in slot:
            block.flags.writeable = False

    def items():
        alive = True
        for i, k in enumerate(steps):
            alive = alive and os.read(ready_r, 1) == b"r"
            yield blocks[i % 2] if alive else build(k)
            # the child waits for this token only to build step i + 2
            if alive and i + 2 < len(steps):
                try:
                    os.write(free_w, b"f")
                except BrokenPipeError:
                    alive = False

    try:
        yield items()
    finally:
        os.close(ready_r)
        os.close(free_w)
        os.waitpid(pid, 0)


def _write_table(path, header, n: int, cells) -> None:
    """The one CSV writer: a ``header`` row, then rows ``[0, n)`` in chunks
    of ``DUMP_CHUNK``, each ``cells(start, stop)`` (its columns of NUL-padded
    ``S`` cells; ``cells`` keeps :func:`_fork`'s contract) assembled as one
    byte matrix by :func:`_write_rows`, so the bytes are a ``csv.writer``
    loop's.  With at least ``SPLIT_MIN`` rows and two usable CPUs
    (:func:`_in_two`), a forked child writes the chunks from the boundary
    nearest half the rows into a tail file beside ``path``, then appended by
    a kernel copy; a chunk's bytes depend on its own rows alone, so they are
    the serial write's."""
    bounds = np.append(np.arange(0, n, DUMP_CHUNK), n)
    tail = f"{os.fspath(path)}.{os.getpid()}.tail"

    def write(lo, hi):
        with open(tail if lo else path, "wb") as fh:
            if not lo:
                fh.write((",".join(header) + "\r\n").encode())
            # the chunks between the boundaries nearest rows lo and hi
            a, b = (int(np.argmin(np.abs(bounds - row))) for row in (lo, hi))
            for start, stop in zip(bounds[a:b], bounds[a + 1:b + 1]):
                _write_rows(fh, cells(start, stop))

    try:
        if _in_two(n, write):
            # a kernel copy, with no user-space buffer; sendfile refuses an
            # O_APPEND target, so seek to the end instead
            with open(path, "r+b") as out, open(tail, "rb") as src:
                out.seek(0, os.SEEK_END)
                offset = 0
                while sent := os.sendfile(out.fileno(), src.fileno(), offset, 1 << 30):
                    offset += sent
    finally:
        if os.path.exists(tail):
            os.remove(tail)


def _write_node_dump(path, header, lattice: Lattice, step_columns) -> None:
    """Write ``k,node-id,state`` and the value columns ``step_columns(k)``
    (``None``: empty fields) of every node through :func:`_write_table`,
    whose chunks run over the flattened node order and so span steps."""
    firsts = np.cumsum([0] + [lattice.n_nodes(k) for k in range(lattice.N + 1)])
    pool = _text(b"%d", range(lattice.N + 1))  # every k, and the walk's ids

    def cells(start, stop):
        rows = np.arange(start, stop)
        k = np.searchsorted(firsts, rows, side="right") - 1
        steps = range(k[0], k[-1] + 1)
        spans = [slice(max(start - firsts[s], 0), min(stop, firsts[s + 1]) - firsts[s])
                 for s in steps]
        states = np.concatenate([lattice.states(s)[sl] for s, sl in zip(steps, spans)])
        out = [pool[k], lattice._id_cells(k, rows - firsts[k], pool),
               _float_cells(states)]
        for pieces in zip(*map(step_columns, steps)):
            # a None piece gives its step's rows empty cells
            text = _float_cells(np.concatenate(
                [c[sl] for c, sl in zip(pieces, spans) if c is not None] or [np.empty(0)]))
            out.append(np.zeros(rows.size, text.dtype))
            out[-1][np.array([c is not None for c in pieces])[k - k[0]]] = text
        return out

    _write_table(path, header, int(firsts[-1]), cells)


def _write_json(path, payload: dict) -> None:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
