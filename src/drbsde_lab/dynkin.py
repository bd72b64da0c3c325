"""Stopping games on full trees: payoffs, exhaustive oracles, saddle checks.

Rules are path based (a full-tree node is a path prefix), because the
optimizations below range over *all* adapted stopping decisions, not just
state-measurable ones.  The payoff of a rule pair hands the stopper of the
lower rail her rail when she is strictly first, the upper rail to the other
player when he is not later (ties included, before the horizon), and the
terminal data when both wait to the end:

    R(tau, gamma) = L at tau       if tau < gamma
                    U at gamma     if gamma <= tau and gamma < T
                    xi             if tau = gamma = T

The exhaustive oracle brute-forces the pair table, so its sup-inf/inf-sup
values are exact finite maxima, independent of any solver identity.  The
rules are one stacked-flag table per depth, classed once.  The oracle still
enumerates every pair, but a pair's value at a node depends only on both
rules' flags below it, so a block of ``PAIR_BLOCK`` rows works on the
distinct pairs of subtree classes per node.  A step's value there depends
only on the node and its two children, so each step solves every distinct
pair of child rows per node once, a row being one distinct triple of the
step below, and each pair of classes gathers its own.  The implicit
fixed point converges each element on its own, so a pair's value depends
only on the pair: the same in any block, in the full broadcast and in
:func:`strategy_value`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bsde import g_evaluate, step_candidate
from .drbsde import DynkinGame, solve_drbsde
from .lattice import (DUMP_CHUNK, FULL_TREE, Lattice, StoppingRule, _float_cells, _text,
                      _write_rows)
from .rbsde import first_hitting

ORACLE_MAX_N = 4
PAIR_BLOCK = 64  # rows of the pair table per block

__all__ = [
    "StoppingRule",
    "GameReport",
    "payoff_R",
    "strategy_value",
    "enumerate_stopping_rules",
    "game_value_oracle",
    "verify_saddle",
    "rule_count",
]


def rule_count(depth: int) -> int:
    """Number of canonical stopping rules on a depth-``depth`` binary tree."""
    s = 1
    for _ in range(depth):
        s = 1 + s * s
    return s


def _check_oracle_tree(tree: Lattice) -> None:
    if tree.mode != FULL_TREE:
        raise ValueError("rule enumeration works on the full-tree backend")
    if tree.N > ORACLE_MAX_N:
        raise ValueError(
            f"enumeration size guard: N <= {ORACLE_MAX_N} "
            f"({rule_count(tree.N)} rules at N = {tree.N})"
        )


def _rule_flags(depth: int) -> list[np.ndarray]:
    """Every canonical rule on a depth-``depth`` subtree as stacked flags, one
    ``(rule_count(depth), 2**k)`` array per step ``k < depth`` (every rule
    stops at the horizon).  Row 0 stops at once; row ``1 + a * c + b`` waits
    a step, then plays row ``a`` of the depth-``depth - 1`` table on the down
    subtree and row ``b`` on the up one, ``c`` the rules there."""
    if depth == 0:
        return []
    sub, c = _rule_flags(depth - 1), rule_count(depth - 1)
    first = np.zeros((1 + c * c, 1), dtype=bool)
    first[0] = True
    waits = [np.concatenate([np.repeat(f, c, axis=0), np.tile(f, (c, 1))], axis=1) for f in sub]
    return [first] + [np.concatenate([np.zeros((1, f.shape[1]), dtype=bool), f]) for f in waits]


@functools.cache
def _rule_table(depth: int):
    """:func:`_rule_flags` of ``depth``, frozen, with its
    :func:`_subtree_classes`: the enumeration, stacked and classed once."""
    flags = _rule_flags(depth)
    root, layout = _subtree_classes(flags, depth)
    for a in [*flags, root, *(a for step in layout for a in step)]:
        a.flags.writeable = False
    return tuple(flags), (root, tuple(layout))


def _row_rule(tree: Lattice, flags, i: int, start: int = 0) -> StoppingRule:
    """Row ``i`` of stacked ``flags`` as a rule on ``tree``, its flags before
    step ``start`` cleared: the rule then starts at ``start``."""
    steps = [f[i] if k >= start else np.zeros(f.shape[1], dtype=bool)
             for k, f in enumerate(flags)]
    return StoppingRule(tree, (*steps, np.ones(tree.n_nodes(tree.N), dtype=bool)))


def enumerate_stopping_rules(tree: Lattice):
    """Every canonical stopping rule on the tree, once, in a fixed order."""
    _check_oracle_tree(tree)
    flags = _rule_table(tree.N)[0]
    rules = [_row_rule(tree, flags, i) for i in range(rule_count(tree.N))]
    return rules, len(rules)


def payoff_R(tau: StoppingRule, gamma: StoppingRule, path, game: DynkinGame) -> float:
    """Game payoff along one terminal path (index or bit word)."""
    lat = game.lattice
    if lat.mode != FULL_TREE:
        raise ValueError("per-path payoffs need the full-tree backend")
    if not (lat.same_grid(tau.lattice) and lat.same_grid(gamma.lattice)):
        raise ValueError("rules live on a different lattice")
    p = int(path, 2) if isinstance(path, str) else int(path)
    k_tau, k_gamma = int(tau.stop_steps()[p]), int(gamma.stop_steps()[p])
    if k_tau < k_gamma:
        return float(game.L[k_tau][p >> (lat.N - k_tau)])
    if k_gamma <= k_tau and k_gamma < lat.N:
        return float(game.U[k_gamma][p >> (lat.N - k_gamma)])
    return float(game.xi.values[p])


def _subtree_classes(flags: list[np.ndarray], n: int):
    """Each row's class ``(flag, down-child class, up-child class)`` at each
    node, hashed bottom-up and numbered per node (one class at the horizon).

    Returns the rows' root classes and, per step ``k < n``, the flags
    ``(A_k, 2**k)`` and children's classes ``(A_k, 2**(k+1))`` of each
    node's classes, ``A_k`` the most at one node; a node with fewer repeats
    its last class.
    """
    cls, width, layout = np.zeros((flags[0].shape[0], 1 << n), dtype=np.int64), 1, [None] * n
    for k in range(n - 1, -1, -1):
        span = 2 * width * width  # each node's key range
        key = (flags[k] * width + cls[:, 0::2]) * width + cls[:, 1::2] + np.arange(1 << k) * span
        cls, rep = _per_node(key, span)
        kids = np.stack([rep // width % width, rep % width], axis=-1).reshape(len(rep), -1)
        layout[k], width = (rep >= width * width, kids), len(rep)
    return cls[:, 0], layout


def _per_node(key: np.ndarray, span: int):
    """Number each node's distinct keys: node ``j``'s keys (``key``'s last
    axis) lie in ``[j * span, (j + 1) * span)``.  The keys are marked in a
    dense table when it is no larger than ``key`` and sorted otherwise, so
    memory stays O(``key``).

    Returns each key's id among its node's, and each node's distinct keys
    less its base ``(m, nodes)``, ``m`` the most at one node; a node with
    fewer repeats its last.
    """
    base = np.arange(key.shape[-1], dtype=key.dtype) * span
    size = span * key.shape[-1]
    if size <= key.size:
        seen = np.zeros(size, dtype=bool)
        seen[key] = True
        uniq, inv = np.flatnonzero(seen), (np.cumsum(seen, dtype=key.dtype) - 1)[key]
    else:
        uniq, inv = np.unique(key, return_inverse=True)
        inv = inv.reshape(key.shape)
    first = np.searchsorted(uniq, base)
    counts = np.diff(np.append(first, uniq.size))
    rep = uniq[first + np.minimum(np.arange(counts.max())[:, None], counts - 1)] - base
    inv -= first.astype(inv.dtype)
    return inv, rep


def _rule_classes(rule: StoppingRule):
    """:func:`_subtree_classes` of one rule."""
    return _subtree_classes([f[None] for f in rule.flags], rule.lattice.N)


def _distinct_children(vals: np.ndarray, ids: np.ndarray, kids_t: np.ndarray,
                       kids_g: np.ndarray):
    """Each node's distinct ``(down, up)`` pairs of child rows over its class
    pairs.

    The step-``k+1`` value of class pair ``(a, b)`` at node ``c`` is
    ``vals[ids[a, b, c], c]``; ``kids_t`` ``(a, 2 * nodes)`` and ``kids_g``
    ``(b, 2 * nodes)`` hold each step-``k`` class's children's classes.
    A node's rows in ``vals`` are distinct triples of the step below, so a
    pair of rows is keyed as it is; two rows that tie by value are solved
    apart.  Returns the batch ``(m, 2 * nodes)`` that holds each node's
    distinct pairs of rows once, ``m`` the most at one node (a node with
    fewer repeats its last), and each class pair's row in it per node,
    ``(a, b, nodes)``.
    """
    rows_n, cols = vals.shape
    nodes, span = cols // 2, rows_n * rows_n
    dtype = np.int32 if span * nodes <= np.iinfo(np.int32).max else np.int64
    # every class pair's key (down row, up row) at every node: each tau
    # class's rows against every gamma child class, then each gamma class
    # takes its own
    node, down, up = np.arange(nodes), np.arange(0, cols, 2), np.arange(1, cols, 2)
    cell, base = ids.astype(dtype, copy=False), (node * span).astype(dtype)
    rows, b1 = (len(kids_t), -1), np.arange(cell.shape[1])[:, None]
    key = np.take((cell[kids_t[:, None, 0::2], b1, down] * rows_n + base).reshape(rows),
                  kids_g[:, 0::2] * nodes + node, axis=1)
    key += np.take(cell[kids_t[:, None, 1::2], b1, up].reshape(rows),
                   kids_g[:, 1::2] * nodes + node, axis=1)
    at, pick = _per_node(key, span)
    batch = np.empty((len(pick), cols))
    batch[:, 0::2] = vals[pick // rows_n, down]
    batch[:, 1::2] = vals[pick % rows_n, up]
    return batch, at.astype(dtype, copy=False)


def _pair_table_block(
    tree: Lattice,
    game: DynkinGame,
    tau_classes,
    gamma_classes,
    scheme: str,
):
    """Root game values for a block of rule pairs, one backward sweep.

    ``tau_classes`` and ``gamma_classes`` are the :func:`_subtree_classes`
    of ``a`` and ``b`` rules, so a side shared by many blocks is classed
    once; the result has shape ``(a, b)``.  The pair stops at the first
    node either rule flags; the upper rail wins ties.  This oracle keeps its
    own loop over the shared batched step.  Each step solves every distinct
    pair of child rows per node of the block's class pairs once
    (:func:`_distinct_children`); where every node holds one class pair,
    its children are the batch.  A step's values are a table, the
    candidates and then the lower and upper rails, with each class pair's
    row in it per node.
    """
    n = tree.N
    (tau_root, tau_layout), (gamma_root, gamma_layout) = tau_classes, gamma_classes
    vals, ids = game.xi.values[None, :], np.zeros((1, 1, 1 << n), dtype=np.int32)
    for k in range(n - 1, -1, -1):
        (stop_t, kids_t), (stop_g, kids_g) = tau_layout[k], gamma_layout[k]
        if len(kids_t) * len(kids_g) == 1:
            # one class per node here means one at every later step too, so
            # the table is the pair's one row
            cand, _ = step_candidate(tree, game.g, k, vals, scheme)
            vals = np.where(stop_t | stop_g, np.where(stop_g, game.U[k], game.L[k]), cand)
            ids = np.zeros((1, 1, 1 << k), dtype=np.int32)
            continue
        batch, at = _distinct_children(vals, ids, kids_t, kids_g)
        cand, _ = step_candidate(tree, game.g, k, batch, scheme)
        vals = np.concatenate([cand, game.L[k][None], game.U[k][None]])
        rail = np.where(stop_g, len(cand) + 1, len(cand)).astype(at.dtype)
        ids = np.where(stop_t[:, None, :] | stop_g[None, :, :], rail[None, :, :], at)
    return vals[:, 0][ids[tau_root][:, gamma_root, 0]]


def strategy_value(
    tree: Lattice,
    game: DynkinGame,
    tau: StoppingRule,
    gamma: StoppingRule,
    scheme: str = "explicit",
) -> float:
    """Evaluation of the pair payoff collected at the earlier stop, from the root."""
    if tree.mode != FULL_TREE:
        raise ValueError("strategy values need the full-tree backend")
    if not tree.same_grid(game.lattice):
        raise ValueError("game lives on a different lattice")
    val = _pair_table_block(tree, game, _rule_classes(tau), _rule_classes(gamma), scheme)
    return float(val[0, 0])


@dataclass(frozen=True)
class GameReport:
    y0: float
    sup_inf: Optional[float] = None
    inf_sup: Optional[float] = None
    optimal_pair: Optional[tuple[int, int]] = None
    saddle_pair: Optional[tuple[StoppingRule, StoppingRule]] = None
    saddle_equality_gap: Optional[float] = None
    max_saddle_violation: Optional[float] = None
    sandwich_slack: Optional[float] = None
    n_rules: int = 0
    tol: float = 1e-10
    scale: float = 1.0
    table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def oracle_gap(self) -> float:
        if self.sup_inf is None or self.inf_sup is None:
            return 0.0
        return max(abs(self.sup_inf - self.y0), abs(self.inf_sup - self.y0))

    @property
    def effective_tol(self) -> float:
        # absolute tolerance on O(1) data; values are compared after
        # rescaling once the obstacle scale passes 1e3
        return self.tol * max(1.0, self.scale / 1e3)

    @property
    def passed(self) -> bool:
        tol = self.effective_tol
        checks = []
        if self.sup_inf is not None and self.inf_sup is not None:
            checks.append(self.sup_inf <= self.inf_sup + tol)
            checks.append(self.oracle_gap <= tol)
        if self.max_saddle_violation is not None:
            checks.append(self.max_saddle_violation <= tol)
        if self.saddle_equality_gap is not None:
            checks.append(self.saddle_equality_gap <= tol)
        if self.sandwich_slack is not None:
            checks.append(self.sandwich_slack <= tol)
        return all(checks)


def pair_value_table(tree: Lattice, game: DynkinGame, scheme: str = "explicit") -> np.ndarray:
    """Root values of every rule pair, rows indexed by the first player, both
    in :func:`enumerate_stopping_rules`' order; ``PAIR_BLOCK`` rows a sweep."""
    _check_oracle_tree(tree)
    n, (flags, every) = tree.N, _rule_table(tree.N)
    count = rule_count(n)
    table = np.empty((count, count))
    for lo in range(0, count, PAIR_BLOCK):
        rows = [f[lo:lo + PAIR_BLOCK] for f in flags]
        table[lo:lo + PAIR_BLOCK] = _pair_table_block(
            tree, game, _subtree_classes(rows, n), every, scheme)
    return table


def game_value_oracle(
    tree: Lattice,
    game: DynkinGame,
    scheme: str = "explicit",
    tol: float = 1e-10,
    solution=None,
) -> GameReport:
    """Brute-force the full pair table and compare both iterated optima
    against the backward solve (``solution``, solved here when ``None``);
    the report keeps the table."""
    table = pair_value_table(tree, game, scheme)
    count = table.shape[0]
    row_min = table.min(axis=1)
    col_max = table.max(axis=0)
    sup_inf = float(row_min.max())
    inf_sup = float(col_max.min())
    i_best = int(np.argmax(row_min))
    j_best = int(np.argmin(col_max))
    if solution is None:
        solution = solve_drbsde(tree, game, scheme)
    return GameReport(
        y0=solution.root_value,
        sup_inf=sup_inf,
        inf_sup=inf_sup,
        optimal_pair=(i_best, j_best),
        n_rules=count,
        tol=tol,
        scale=game.scale(),
        table=table,
    )


def write_game_report(path, report: GameReport) -> None:
    """Structured-text dump of a game report."""
    lines = [f"y0 {report.y0:.17g}"]
    for name in ("sup_inf", "inf_sup", "saddle_equality_gap",
                 "max_saddle_violation", "sandwich_slack"):
        value = getattr(report, name)
        if value is not None:
            lines.append(f"{name} {value:.17g}")
    if report.optimal_pair is not None:
        lines.append(f"optimal_pair {report.optimal_pair[0]} {report.optimal_pair[1]}")
    if report.saddle_pair is not None:
        lines.append(
            f"saddle_pair {report.saddle_pair[0].hash_hex()} "
            f"{report.saddle_pair[1].hash_hex()}"
        )
    lines.append(f"n_rules {report.n_rules}")
    lines.append(f"tolerance {report.effective_tol:.17g}")
    lines.append(f"passed {str(report.passed).lower()}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_pair_table_csv(path, table: np.ndarray) -> None:
    """Dump a pair-value table (``GameReport.table``) row-major,
    ``DUMP_CHUNK`` rows per write."""
    flat = table.ravel()
    pool = _text(b"%d", range(max(table.shape)))
    with open(path, "wb") as fh:
        fh.write(b"tau_index,gamma_index,value\r\n")
        for start in range(0, flat.size, DUMP_CHUNK):
            chunk = flat[start:start + DUMP_CHUNK]
            rows, cols = np.divmod(np.arange(start, start + chunk.size), table.shape[1])
            _write_rows(fh, [pool[rows], pool[cols], _float_cells(chunk)])


def verify_saddle(
    tree: Lattice,
    game: DynkinGame,
    solution=None,
    scheme: str = "explicit",
    tol: float = 1e-10,
    seed: int = 0,
) -> GameReport:
    """Check that the two first contact rules beat every unilateral deviation.

    With the opponent pinned at her contact rule, every enumerated deviation
    of the other player lands on the wrong side of the backward value; the
    contact pair itself attains it, and evaluating the solution stopped at
    the capped rules sandwiches it from both sides."""
    _check_oracle_tree(tree)
    if solution is None:
        solution = solve_drbsde(tree, game, scheme)
    y0 = solution.root_value
    flags, every = _rule_table(tree.N)
    count = rule_count(tree.N)
    tau_star = first_hitting(solution, None, "lower").canonicalize()
    gamma_star = first_hitting(solution, None, "upper").canonicalize()

    # every tau against gamma*; tau* against every gamma
    col = _pair_table_block(tree, game, every, _rule_classes(gamma_star), scheme)[:, 0]
    row = _pair_table_block(tree, game, _rule_classes(tau_star), every, scheme)[0, :]
    violation = max(float(np.max(col - y0)), float(np.max(y0 - row)))
    equality_gap = abs(strategy_value(tree, game, tau_star, gamma_star, scheme) - y0)

    # stopped-value sandwich at sampled start steps; deviations and contact
    # rules are delayed past the start so they range over rules after nu,
    # and each deviation capped by gamma* and by tau* runs in one sweep
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, count, size=min(6, count))
    nus, capped = [], []
    for k in range(tree.N + 1):
        nu = StoppingRule.at_step(tree, k)
        stars = [first_hitting(solution, nu, side) for side in ("upper", "lower")]
        for idx in picks:
            dev = _row_rule(tree, flags, int(idx), k)
            nus += [nu, nu]
            capped += [dev.union(star) for star in stars]
    tables = g_evaluate(tree, nus, capped, solution.Y, game.g, scheme)
    sandwich = 0.0
    for i, table in enumerate(tables):
        k = i // (2 * len(picks))
        gap = table[k] - solution.Y[k] if i % 2 == 0 else solution.Y[k] - table[k]
        sandwich = max(sandwich, float(np.max(gap)))
    return GameReport(
        y0=y0,
        saddle_pair=(tau_star, gamma_star),
        saddle_equality_gap=equality_gap,
        max_saddle_violation=violation,
        sandwich_slack=sandwich,
        n_rules=count,
        tol=tol,
        scale=game.scale(),
    )
