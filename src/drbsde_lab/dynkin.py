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
canonical rules are recursive: a rule stops at once, or waits a step and
then plays one rule on each child subtree.  The table is built the same way,
a subtree at a time: each node's table of rule pairs comes from its two
children's, and each step solves every pair of one distinct down-child value
and one distinct up-child value per node once.  Arbitrary stacked rules are
swept by the plain broadcast of every pair at every node.  The implicit
fixed point converges each element on its own, so a pair's value depends
only on the pair: the same in the table, in the broadcast and in
:func:`strategy_value`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bsde import g_evaluate, step_candidate
from .drbsde import DynkinGame, solve_drbsde
from .lattice import FULL_TREE, Lattice, StoppingRule, _float_cells, _text, _write_table
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


def _row_rule(tree: Lattice, flags, i: int, start: int = 0) -> StoppingRule:
    """Row ``i`` of stacked ``flags`` as a rule on ``tree``, its flags before
    step ``start`` cleared: the rule then starts at ``start``."""
    steps = [f[i] if k >= start else np.zeros(f.shape[1], dtype=bool)
             for k, f in enumerate(flags)]
    return StoppingRule(tree, (*steps, np.ones(tree.n_nodes(tree.N), dtype=bool)))


def enumerate_stopping_rules(tree: Lattice):
    """Every canonical stopping rule on the tree, once, in a fixed order."""
    _check_oracle_tree(tree)
    flags = _rule_flags(tree.N)
    return [_row_rule(tree, flags, i) for i in range(rule_count(tree.N))]


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


def _flags(rule: StoppingRule) -> list[np.ndarray]:
    """One rule as stacked flags, ``(1, 2**k)`` per step."""
    return [f[None] for f in rule.flags]


def _pair_table_block(tree: Lattice, game: DynkinGame, tau_flags, gamma_flags, scheme: str):
    """Root game values of every pair of ``a`` and ``b`` stacked rules, one
    backward sweep over their ``(a, b, 2**k)`` broadcast.

    ``tau_flags[k]`` and ``gamma_flags[k]`` are the rules' ``(a, 2**k)`` and
    ``(b, 2**k)`` flags at step ``k``, any flags, not only canonical ones;
    the result has shape ``(a, b)``.  The pair stops at the first node either
    rule flags; the upper rail wins ties.
    """
    v = np.broadcast_to(game.xi.values, (len(tau_flags[0]), len(gamma_flags[0]), 1 << tree.N))
    for k in range(tree.N - 1, -1, -1):
        cand, _ = step_candidate(tree, game.g, k, v, scheme)
        stop_t, stop_g = tau_flags[k][:, None, :], gamma_flags[k][None, :, :]
        v = np.where(stop_t | stop_g, np.where(stop_g, game.U[k], game.L[k]), cand)
    return v[..., 0]


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
    val = _pair_table_block(tree, game, _flags(tau), _flags(gamma), scheme)
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


def _distinct(tables: np.ndarray):
    """Each node's distinct values by bit pattern in ``tables`` (nodes on the
    last axis), ``(m, nodes)`` with ``m`` the most at one node (a node with
    fewer repeats its last), and each entry's row among its node's."""
    cols = tables.reshape(-1, tables.shape[-1]).view(np.int64).T
    found = [np.unique(col, return_inverse=True) for col in cols]
    m = max(len(u) for u, _ in found)
    values = np.stack([np.pad(u, (0, m - len(u)), mode="edge") for u, _ in found], axis=-1)
    rows = np.stack([inv for _, inv in found], axis=-1).reshape(tables.shape)
    return values.view(np.float64), rows


def pair_value_table(tree: Lattice, game: DynkinGame, scheme: str = "explicit") -> np.ndarray:
    """Root values of every rule pair, rows indexed by the first player, both
    in :func:`enumerate_stopping_rules`' order.

    Built by subtree recursion, every node of a step at once.  At a node,
    rule 0 stops there: its row takes L and its column U, and U wins the
    tie at ``[0, 0]``.  The pair ``(1 + a * c + b, 1 + e * c + f)`` takes one
    step from the down child's pair ``(a, e)`` and the up child's ``(b, f)``,
    ``c`` the rules on a child subtree.  One ``step_candidate`` call a step
    solves every pair of a distinct down-child value and a distinct
    up-child value per node.
    """
    _check_oracle_tree(tree)
    table = game.xi.values[None, None, :]
    for k in range(tree.N - 1, -1, -1):
        (down, at_down), (up, at_up) = _distinct(table[..., 0::2]), _distinct(table[..., 1::2])
        batch = np.empty((len(down), len(up), 2 << k))
        batch[..., 0::2], batch[..., 1::2] = down[:, None], up[None]
        cand, _ = step_candidate(tree, game.g, k, batch, scheme)
        c = table.shape[0]
        waits = cand[at_down[:, None, :, None], at_up[None, :, None, :], np.arange(1 << k)]
        table = np.empty((1 + c * c, 1 + c * c, 1 << k))
        table[1:, 1:] = waits.reshape(c * c, c * c, -1)
        table[0], table[:, 0] = game.L[k], game.U[k]
    return table[..., 0]


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


def write_game_report(path, report: GameReport, passed: bool) -> None:
    """Structured-text dump of an oracle report (:func:`game_value_oracle`)
    and the verdict ``passed`` of the whole run, saddle check included."""
    lines = [f"y0 {report.y0:.17g}"]
    for name in ("sup_inf", "inf_sup"):
        value = getattr(report, name)
        if value is not None:
            lines.append(f"{name} {value:.17g}")
    if report.optimal_pair is not None:
        lines.append(f"optimal_pair {report.optimal_pair[0]} {report.optimal_pair[1]}")
    lines.append(f"n_rules {report.n_rules}")
    lines.append(f"tolerance {report.effective_tol:.17g}")
    lines.append(f"passed {str(passed).lower()}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_pair_table_csv(path, table: np.ndarray) -> None:
    """Dump a pair-value table (``GameReport.table``) row-major."""
    flat = table.ravel()
    pool = _text(b"%d", range(max(table.shape)))

    def cells(start, stop):
        rows, cols = np.divmod(np.arange(start, stop), table.shape[1])
        return [pool[rows], pool[cols], _float_cells(flat[start:stop])]

    _write_table(path, ["tau_index", "gamma_index", "value"], flat.size, cells)


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
    flags, count = _rule_flags(tree.N), rule_count(tree.N)
    tau_star = first_hitting(solution, None, "lower").canonicalize()
    gamma_star = first_hitting(solution, None, "upper").canonicalize()

    # every tau against gamma*; tau* against every gamma
    col = _pair_table_block(tree, game, flags, _flags(gamma_star), scheme)[:, 0]
    row = _pair_table_block(tree, game, _flags(tau_star), flags, scheme)[0, :]
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
