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
values are exact finite maxima, independent of any solver identity.  It
still enumerates every pair, but a pair's value at a node depends only on
both rules' flags below it, so each block of 64 rows evaluates each distinct
pair of subtree classes per node once.  The implicit fixed point converges
each element on its own, so a pair's value depends only on the pair: the
same in any block, in the full broadcast and in :func:`strategy_value`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bsde import g_evaluate, step_candidate
from .drbsde import DynkinGame, solve_drbsde
from .lattice import DUMP_CHUNK, FULL_TREE, Lattice, StoppingRule, _write_rows
from .rbsde import first_hitting

ORACLE_MAX_N = 4

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


_SHAPE_MEMO: dict[int, list] = {}


def _shapes(depth: int) -> list:
    """All canonical rule shapes on a depth-``depth`` subtree (memoized)."""
    cached = _SHAPE_MEMO.get(depth)
    if cached is not None:
        return cached
    if depth == 0:
        out = [(np.array([True]),)]
    else:
        stop_now = (
            (np.array([True]),)
            + tuple(np.zeros(1 << i, dtype=bool) for i in range(1, depth))
            + (np.ones(1 << depth, dtype=bool),)
        )
        out = [stop_now]
        sub = _shapes(depth - 1)
        for left in sub:
            for right in sub:
                out.append(
                    (np.array([False]),)
                    + tuple(
                        np.concatenate([left[i], right[i]]) for i in range(depth)
                    )
                )
    _SHAPE_MEMO[depth] = out
    return out


def enumerate_stopping_rules(tree: Lattice):
    """Every canonical stopping rule on the tree, once, in a fixed order."""
    _check_oracle_tree(tree)
    rules = [StoppingRule(tree, shape) for shape in _shapes(tree.N)]
    expected = rule_count(tree.N)
    if len(rules) != expected:
        raise RuntimeError(
            f"enumeration produced {len(rules)} rules, recurrence says {expected}"
        )
    return rules, expected


def _delay_rule(rule: StoppingRule, k: int) -> StoppingRule:
    """Forget flags strictly before step ``k``; the rule then starts at ``k``."""
    lat = rule.lattice
    flags = [
        np.zeros(lat.n_nodes(i), dtype=bool) if i < k else rule.flags[i]
        for i in range(lat.N + 1)
    ]
    return StoppingRule(lat, tuple(flags))


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
        base = np.arange(1 << k) * (2 * width * width)  # each node's key range
        key = (flags[k] * width + cls[:, 0::2]) * width + cls[:, 1::2] + base
        uniq, inv = np.unique(key, return_inverse=True)
        first = np.searchsorted(uniq, base)
        counts = np.diff(np.append(first, uniq.size))
        cls = inv.reshape(key.shape) - first
        rep = uniq[first + np.minimum(np.arange(counts.max())[:, None], counts - 1)] - base
        kids = np.stack([rep // width % width, rep % width], axis=-1).reshape(len(rep), -1)
        layout[k], width = (rep >= width * width, kids), int(counts.max())
    return cls[:, 0], layout


def _pair_table_block(
    tree: Lattice,
    game: DynkinGame,
    tau_flags: list[np.ndarray],
    gamma_flags: list[np.ndarray],
    scheme: str,
):
    """Root game values for a block of rule pairs, one backward sweep.

    ``tau_flags[k]`` has shape ``(a, w_k)`` and ``gamma_flags[k]`` shape
    ``(b, w_k)``; the result has shape ``(a, b)``.  The pair stops at the
    first node either rule flags; the upper rail wins ties.  This oracle
    keeps its own loop over the shared batched step, on each step's
    distinct pairs of subtree classes per node (see the module docstring).
    """
    n = tree.N
    tau_root, tau_layout = _subtree_classes(tau_flags, n)
    gamma_root, gamma_layout = _subtree_classes(gamma_flags, n)
    v = game.xi.values[None, None, :]
    for k in range(n - 1, -1, -1):
        (stop_t, kids_t), (stop_g, kids_g) = tau_layout[k], gamma_layout[k]
        children = v[kids_t[:, None, :], kids_g[None, :, :], np.arange(2 << k)]
        cand, _ = step_candidate(tree, game.g, k, children, scheme)
        stop_t, stop_g = stop_t[:, None, :], stop_g[None, :, :]
        pay = np.where(stop_g, game.U[k], game.L[k])
        v = np.where(stop_t | stop_g, pay, cand)
    return v[tau_root[:, None], gamma_root[None, :], 0]


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
    val = _pair_table_block(
        tree,
        game,
        [f[None, :] for f in tau.flags],
        [f[None, :] for f in gamma.flags],
        scheme,
    )
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


def pair_value_table(
    tree: Lattice, game: DynkinGame, scheme: str = "explicit", block: int = 64
) -> np.ndarray:
    """Root values of every rule pair, rows indexed by the first player."""
    _check_oracle_tree(tree)
    rules, count = enumerate_stopping_rules(tree)
    stacked = [
        np.stack([r.flags[k] for r in rules]) for k in range(tree.N + 1)
    ]
    table = np.empty((count, count))
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        table[lo:hi] = _pair_table_block(
            tree,
            game,
            [f[lo:hi] for f in stacked],
            stacked,
            scheme,
        )
    return table


def game_value_oracle(
    tree: Lattice,
    game: DynkinGame,
    scheme: str = "explicit",
    tol: float = 1e-10,
    block: int = 64,
    solution=None,
) -> GameReport:
    """Brute-force the full pair table and compare both iterated optima
    against the backward solve (``solution``, solved here when ``None``);
    the report keeps the table."""
    table = pair_value_table(tree, game, scheme, block)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("tau_index,gamma_index,value\r\n")
        for start in range(0, flat.size, DUMP_CHUNK):
            chunk = flat[start:start + DUMP_CHUNK]
            rows, cols = np.divmod(np.arange(start, start + chunk.size), table.shape[1])
            _write_rows(fh, (map(str, rows.tolist()), map(str, cols.tolist())), [chunk])


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
    the capped rules sandwiches it from both sides.
    """
    _check_oracle_tree(tree)
    if solution is None:
        solution = solve_drbsde(tree, game, scheme)
    y0 = solution.root_value
    rules, count = enumerate_stopping_rules(tree)
    stacked = [
        np.stack([r.flags[k] for r in rules]) for k in range(tree.N + 1)
    ]
    tau_star = first_hitting(solution, None, "lower").canonicalize()
    gamma_star = first_hitting(solution, None, "upper").canonicalize()

    # every tau against gamma*; tau* against every gamma
    col = _pair_table_block(
        tree, game, stacked, [f[None, :] for f in gamma_star.flags], scheme
    )[:, 0]
    row = _pair_table_block(
        tree, game, [f[None, :] for f in tau_star.flags], stacked, scheme
    )[0, :]
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
            dev = _delay_rule(rules[int(idx)], k)
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
