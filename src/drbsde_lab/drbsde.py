"""Two-obstacle solver and the three independent routes to the same solution.

Strict separation of the obstacles (``L < U`` everywhere) replaces any
between-obstacle regularity assumption and is what makes the alternating
pasting construction terminate: the value process cannot touch both rails
at one node, so contacts alternate and each full alternation advances time.

Routes cross-validated against the direct backward induction:

* increasing penalization -- upper-reflected solves whose driver is pushed
  up by ``n (y - L)^-``, values rising toward the solution;
* decreasing penalization -- lower-reflected solves pushed down by
  ``n (y - U)^+``, values falling toward it;
* pasting -- alternating one-obstacle segments between the contact
  frontiers of the solution, each segment fed by the continuation value
  already built past its end.  The frontiers are chained
  ``rbsde.first_hitting`` rules, the same first contact times the saddle
  and Snell checks read.

Every route projects with ``bsde._reflect``: the direct solve and both
penalty schemes through ``bsde._reflected_sweep``, as rows of one sweep when
they are cross-validated, pasting directly, with each node's inactive rail
given as -inf or +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bsde import (CLAMP_ROW, Solution, _base_meta, _reflect, _reflected_sweep, _row_process,
                   _row_stats, backward_induction)
from .generator import Generator
from .lattice import (
    FULL_TREE,
    AdaptedProcess,
    Lattice,
    StoppingRule,
    TerminalPayoff,
    _write_table,
)
from .rbsde import (DEFAULT_SCHEDULE, _check_schedule, _penalization_report, _started_mask,
                    first_hitting)

SEPARATION_FLOOR = 1e-9


class SeparationError(ValueError):
    """The obstacles touch or cross somewhere."""


@dataclass(frozen=True)
class DynkinGame:
    """Problem datum: terminal data between two strictly separated rails."""

    xi: TerminalPayoff
    g: Generator
    L: AdaptedProcess
    U: AdaptedProcess

    def __post_init__(self):
        lat = self.xi.lattice
        if not (lat.same_grid(self.L.lattice) and lat.same_grid(self.U.lattice)):
            raise ValueError("obstacles must live on the terminal data's lattice")
        margin, floor = self.separation_margin(), SEPARATION_FLOOR * self.scale()
        if not margin > floor:  # a NaN margin fails too
            raise SeparationError(
                f"obstacles are not strictly separated at node "
                f"{lat.node_label(*self._worst_node())}: U - L = {margin:.3g} "
                f"(floor {floor:.3g})"
            )
        for bad, where in ((self.L.terminal() > self.xi.values, "below the lower"),
                           (self.xi.values > self.U.terminal(), "above the upper")):
            if bad.any():
                raise ValueError(f"terminal data {where} rail at node "
                                 f"{lat.node_label(lat.N, int(np.argmax(bad)))}")

    @property
    def lattice(self) -> Lattice:
        return self.xi.lattice

    def separation_margin(self) -> float:
        """Smallest gap ``U - L``; NaN when any gap is NaN."""
        return float(np.min([np.min(self.U[k] - self.L[k]) for k in range(self.lattice.N + 1)]))

    def _worst_node(self):
        """``(k, i)`` of the first gap ``U - L`` that is not finite, else of the
        first smallest one."""
        gaps = [self.U[k] - self.L[k] for k in range(self.lattice.N + 1)]
        for k, gap in enumerate(gaps):
            if not np.isfinite(gap).all():
                return k, int(np.argmin(np.isfinite(gap)))
        k = int(np.argmin([gap.min() for gap in gaps]))
        return k, int(np.argmin(gaps[k]))

    def scale(self) -> float:
        return max(
            1.0,
            self.L.sup_norm(),
            self.U.sup_norm(),
            float(np.max(np.abs(self.xi.values))),
        )


def solve_drbsde(lattice: Lattice, game: DynkinGame, scheme: str = "explicit") -> Solution:
    """Direct backward induction clamping each candidate between the rails.

    Strict separation makes the two clamps commute, and at most one of the
    compensators can act at a node, so ``dK * dJ = 0`` and both flat-off
    products vanish exactly.
    """
    if not lattice.same_grid(game.lattice):
        raise ValueError("game lives on a different lattice")
    sol, = _reflected_sweep(lattice, game.g, game.xi.values, scheme, game.L, game.U)
    return sol


# ----------------------------------------------------------------------
# the two penalization schemes
# ----------------------------------------------------------------------


def double_penalization(
    lattice: Lattice,
    game: DynkinGame,
    schedule=DEFAULT_SCHEDULE,
    direction: str = "increasing",
    scheme: str = "explicit",
):
    """Run one penalization scheme along ``schedule`` against the direct solve."""
    _, (family,) = _penalty_sweep(lattice, game, schedule, (direction,), scheme)
    return family


def _penalty_sweep(lattice, game, schedule, directions, scheme):
    """The direct solve and the penalty schemes of ``directions``, as one sweep.

    Returns ``(direct, families)``, one ``(levels, report)`` per direction,
    each report measuring its levels against the direct row.  Only the
    penalized side is reported; the reflected side is exact by construction.
    """
    if not lattice.same_grid(game.lattice):
        raise ValueError("game lives on a different lattice")
    if set(directions) - {"increasing", "decreasing"}:
        raise ValueError(f"unknown direction in {directions!r}")
    schedule = _check_schedule(schedule)
    # increasing: keep the upper reflection, push up with the lower penalty;
    # decreasing: keep the lower reflection, push down with the upper penalty
    rows = [CLAMP_ROW]
    for d in directions:
        rows += [((n, math.inf) if d == "increasing" else (math.inf, n))
                 + ({"direction": d, "penalty_level": n},) for n in schedule]
    direct, *levels = _reflected_sweep(lattice, game.g, game.xi.values, scheme, game.L,
                                       game.U, rows=rows)
    families = []
    for i, d in enumerate(directions):
        family = levels[i * len(schedule):(i + 1) * len(schedule)]
        side, obstacle = ("lower", game.L) if d == "increasing" else ("upper", game.U)
        families.append((family, _penalization_report(family, direct, obstacle, side, schedule)))
    return direct, families


# ----------------------------------------------------------------------
# pasting over alternating contact times
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PastingLedger:
    """Alternating contact frontiers and the segment structure they cut."""

    boundaries: tuple[StoppingRule, ...]  # after segment 1, 2, ...
    sides: tuple[str, ...]                # side of segment 1, 2, ...
    node_counts: tuple[int, ...]
    max_depth: int                        # per-path segment count, maximum
    segments_by_terminal: np.ndarray      # nonempty segments along each path
    direct: Solution                      # the solve the contacts were read off


def write_ledger_csv(path, ledger: PastingLedger) -> None:
    """One row per segment: its side, opening and closing rules and node count."""
    n = len(ledger.sides)
    rules = [rule.hash_hex() for rule in ledger.boundaries]
    columns = [np.array(col, dtype="S") for col in (
        [str(i) for i in range(1, n + 1)], ledger.sides, (["root"] + rules)[:n],
        (rules + ["horizon"])[:n], [str(c) for c in ledger.node_counts])]
    _write_table(path, ["segment", "side", "start_rule", "end_rule", "node_count"], n,
                 lambda start, stop: [c[start:stop] for c in columns])


def pasting_construct(
    lattice: Lattice,
    game: DynkinGame,
    scheme: str = "explicit",
    direct: Optional[Solution] = None,
):
    """Rebuild the solution from alternating one-obstacle segments.

    Contact frontiers are read off the limit solution as chained
    :func:`rbsde.first_hitting` rules: the first node where it equals the
    upper rail from the root, then the first node where it equals the lower
    rail at or after it, and so on, the segment starting at each.  Segment
    1 is lower, and sides alternate.  Each node then takes a single
    one-obstacle step (its segment's side only), with terminal data flowing
    backward out of the continuation already built -- so agreement with the
    direct solve certifies that the solution really is an alternation of
    one-obstacle solutions between its own contact times.
    ``direct`` is the direct solve (:func:`solve_drbsde`), solved here when
    ``None``.
    """
    if lattice.mode != FULL_TREE:
        raise ValueError("pasting tracks path-dependent segments: full tree only")
    if not lattice.same_grid(game.lattice):
        raise ValueError("game lives on a different lattice")
    direct = solve_drbsde(lattice, game, scheme) if direct is None else direct

    # contact frontiers: boundary d is the first touch of the upper rail (d
    # odd) or the lower rail (d even) at or after boundary d-1; no node
    # touches both, so each falls strictly later and at most N stop inside
    boundaries, start = [], None
    for d in range(1, lattice.N + 1):
        rule = first_hitting(direct, start, "upper" if d % 2 else "lower").canonicalize()
        if not any(f.any() for f in rule.flags[:-1]):
            break
        boundaries.append(start := rule)

    # segment index: 1 + the boundaries started at or before the node; a
    # terminal node keeps its parent's
    seg = [np.ones(lattice.n_nodes(k), dtype=np.int64) for k in range(lattice.N)]
    for rule in boundaries:
        for k, started in enumerate(_started_mask(rule)[:-1]):
            seg[k] += started
    seg.append(lattice.spread_to_children(seg[-1]))

    # backward sweep: one-obstacle step per node, side chosen by its segment
    def one_sided(k, cand):
        lower_mode = seg[k] % 2 == 1
        return _reflect(cand, np.where(lower_mode, game.L[k], -np.inf),
                        np.where(lower_mode, np.inf, game.U[k]))

    *stacks, stats = backward_induction(lattice, game.g, game.xi.values, scheme, one_sided)
    Y, Z, dK, dJ = (_row_process(lattice, stack) for stack in stacks)
    pasted = Solution(
        kind="doubly-reflected", Y=Y, Z=Z, dK=dK, dJ=dJ,
        meta={**_base_meta(lattice, game.g, scheme), **_row_stats(stats), "route": "pasting"},
        obstacle_lower=game.L, obstacle_upper=game.U,
    )

    max_depth = len(boundaries) + 1
    ledger = PastingLedger(
        boundaries=tuple(boundaries),
        sides=tuple("lower" if d % 2 else "upper" for d in range(1, max_depth + 1)),
        node_counts=tuple(sum(int(np.count_nonzero(s == d)) for s in seg)
                          for d in range(1, max_depth + 1)),
        max_depth=max_depth,
        # a contact at the root leaves segment 1 empty
        segments_by_terminal=seg[lattice.N] - int(seg[0][0]) + 1,
        direct=direct,
    )
    return pasted, ledger


# ----------------------------------------------------------------------
# cross-validation of all routes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrossReport:
    gap_direct_pasting: float
    gap_direct_increasing: float
    gap_direct_decreasing: float
    squeeze_violation: float       # increasing above direct / direct above decreasing
    order_violation: float         # increasing above decreasing at shared levels
    flat_off_lower: float
    flat_off_upper: float
    pasted: Solution
    ledger: PastingLedger


def cross_validate(
    lattice: Lattice,
    game: DynkinGame,
    scheme: str = "explicit",
    schedule=DEFAULT_SCHEDULE,
) -> CrossReport:
    """Drive every route to the solution and report their disagreements.

    The direct route and both penalty families are solved as one sweep,
    each row bitwise equal to its own solve.  The direct row is the
    reference for both families, and the pasting construction reads its
    contacts off it.  The report carries the pasted solution and its ledger.
    """
    direct, ((inc_levels, inc_report), (dec_levels, dec_report)) = _penalty_sweep(
        lattice, game, schedule, ("increasing", "decreasing"), scheme)
    pasted, ledger = pasting_construct(lattice, game, scheme, direct=direct)

    def sup_gap(a: Solution, b: Solution) -> float:
        return max(
            float(np.max(np.abs(a.Y[k] - b.Y[k]))) for k in range(lattice.N + 1)
        )

    squeeze = 0.0
    order = 0.0
    for inc, dec in zip(inc_levels, dec_levels):
        for k in range(lattice.N + 1):
            squeeze = max(squeeze, float(np.max(inc.Y[k] - direct.Y[k])))
            squeeze = max(squeeze, float(np.max(direct.Y[k] - dec.Y[k])))
            order = max(order, float(np.max(inc.Y[k] - dec.Y[k])))

    return CrossReport(
        gap_direct_pasting=sup_gap(direct, pasted),
        gap_direct_increasing=inc_report.final_gap,
        gap_direct_decreasing=dec_report.final_gap,
        squeeze_violation=squeeze,
        order_violation=order,
        flat_off_lower=direct.flat_off_lower(),
        flat_off_upper=direct.flat_off_upper(),
        pasted=pasted,
        ledger=ledger,
    )
