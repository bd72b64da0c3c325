import csv
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab import bsde, dynkin
from drbsde_lab.bsde import random_rule, step_candidate
from drbsde_lab.drbsde import DynkinGame, SeparationError, solve_drbsde
from drbsde_lab.dynkin import (
    StoppingRule,
    enumerate_stopping_rules,
    game_value_oracle,
    pair_value_table,
    payoff_R,
    rule_count,
    strategy_value,
    verify_saddle,
    write_game_report,
    write_pair_table_csv,
)
from drbsde_lab.generator import Generator, registry_generator, stop_generator
from drbsde_lab.lattice import (
    FULL_TREE,
    AdaptedProcess,
    TerminalPayoff,
    build_lattice,
)
from drbsde_lab.rbsde import first_hitting


def constant_rails_game(tree, xi_values, l0, u0, g=None):
    n = tree.N
    lo = min(float(np.min(xi_values)), l0) - 1.0
    hi = max(float(np.max(xi_values)), u0) + 1.0
    L = AdaptedProcess(
        tree,
        tuple(np.full(tree.n_nodes(k), l0 if k < n else lo) for k in range(n + 1)),
    )
    U = AdaptedProcess(
        tree,
        tuple(np.full(tree.n_nodes(k), u0 if k < n else hi) for k in range(n + 1)),
    )
    return DynkinGame(
        xi=TerminalPayoff(tree, np.asarray(xi_values, dtype=float)),
        g=g or registry_generator("zero"),
        L=L,
        U=U,
    )


def reference_shapes(depth):
    """Every canonical rule's flags on a depth-``depth`` subtree, as the
    enumeration first built them: one tuple of per-step arrays per rule."""
    if depth == 0:
        return [(np.array([True]),)]
    stop_now = ((np.array([True]),) + tuple(np.zeros(1 << i, dtype=bool) for i in range(1, depth))
                + (np.ones(1 << depth, dtype=bool),))
    sub = reference_shapes(depth - 1)
    return [stop_now] + [
        (np.array([False]),) + tuple(np.concatenate([down[i], up[i]]) for i in range(depth))
        for down in sub for up in sub
    ]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 26), (4, 677)])
    def test_counts_follow_recurrence(self, n, count):
        tree = build_lattice(1.0, n, FULL_TREE)
        rules = enumerate_stopping_rules(tree)
        assert len(rules) == count == rule_count(n)
        assert len({r.key() for r in rules}) == count

    def test_rules_are_canonical(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        rules = enumerate_stopping_rules(tree)
        for r in rules:
            assert r == r.canonicalize()

    def test_size_guard(self):
        tree = build_lattice(1.0, 5, FULL_TREE)
        with pytest.raises(ValueError, match="size guard"):
            enumerate_stopping_rules(tree)

    def test_needs_tree_backend(self):
        lat = build_lattice(1.0, 3)
        with pytest.raises(ValueError):
            enumerate_stopping_rules(lat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_table_is_the_object_enumeration(self, n):
        # the table's rows, bitwise and in order, are the rules of the
        # recursion over rule objects: stop at once, else a rule on each
        # child subtree, the down one outer
        tree = build_lattice(1.0, n, FULL_TREE)
        flags = dynkin._rule_flags(n)
        want = reference_shapes(n)
        assert len(flags) == n and flags[0].shape == (len(want), 1)
        for k, f in enumerate(flags):
            assert f.dtype == bool
            np.testing.assert_array_equal(f, np.stack([shape[k] for shape in want]))
        rules = enumerate_stopping_rules(tree)
        assert [r.key() for r in rules] == [StoppingRule(tree, shape).key() for shape in want]

    def test_enumeration_order_is_stable(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        a = enumerate_stopping_rules(tree)
        b = enumerate_stopping_rules(tree)
        assert [r.key() for r in a] == [r.key() for r in b]


class TestPayoff:
    def setup_method(self):
        self.tree = build_lattice(1.0, 2, FULL_TREE)
        self.game = constant_rails_game(self.tree, [0.0, 0.0, 0.0, 0.0], -1.0, 2.0)

    def test_first_stopper_hands_over_the_lower_rail(self):
        tau = StoppingRule.at_step(self.tree, 1)
        gamma = StoppingRule.at_step(self.tree, 2)
        assert payoff_R(tau, gamma, "10", self.game) == -1.0

    def test_tie_before_horizon_pays_the_upper_rail(self):
        tau = StoppingRule.at_step(self.tree, 1)
        assert payoff_R(tau, tau, "10", self.game) == 2.0

    def test_both_waiting_pays_terminal_data(self):
        hz = StoppingRule.horizon(self.tree)
        assert payoff_R(hz, hz, "01", self.game) == 0.0

    def test_gamma_priority_on_equal_interior_stop(self):
        gamma = StoppingRule.at_step(self.tree, 0)
        tau = StoppingRule.at_step(self.tree, 0)
        assert payoff_R(tau, gamma, "00", self.game) == 2.0


class TestStrategyValue:
    def test_waiting_pair_is_plain_expectation(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        rng = np.random.default_rng(0)
        xi = rng.normal(size=8)
        game = constant_rails_game(tree, xi, -5.0, 5.0)
        hz = StoppingRule.horizon(tree)
        assert strategy_value(tree, game, hz, hz) == pytest.approx(
            float(np.mean(xi)), abs=1e-14
        )

    def test_immediate_stop_pays_a_rail(self):
        tree = build_lattice(1.0, 2, FULL_TREE)
        game = constant_rails_game(tree, [0.0] * 4, -1.0, 2.0)
        at0 = StoppingRule.at_step(tree, 0)
        hz = StoppingRule.horizon(tree)
        assert strategy_value(tree, game, at0, hz) == -1.0  # tau alone stops
        assert strategy_value(tree, game, hz, at0) == 2.0   # gamma alone stops
        assert strategy_value(tree, game, at0, at0) == 2.0  # tie: upper rail

    def test_constant_driver_adds_ct(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        rng = np.random.default_rng(1)
        xi = rng.normal(size=8)
        game = constant_rails_game(
            tree, xi, -50.0, 50.0, g=registry_generator("constant:0.4")
        )
        hz = StoppingRule.horizon(tree)
        assert strategy_value(tree, game, hz, hz) == pytest.approx(
            float(np.mean(xi)) + 0.4, abs=1e-12
        )


class TestOracle:
    def test_one_step_exhaustive_table(self):
        tree = build_lattice(1.0, 1, FULL_TREE)
        for e, l0, u0 in [(3.0, -0.5, 0.7), (-2.0, -0.5, 0.7), (0.3, -0.5, 0.7)]:
            game = constant_rails_game(tree, [e, e], l0, u0)
            report = game_value_oracle(tree, game)
            assert report.sup_inf == pytest.approx(max(l0, min(u0, e)), abs=1e-15)
            assert report.inf_sup == pytest.approx(report.sup_inf, abs=1e-15)
            assert report.passed

    def test_two_step_deterministic_hand_program(self):
        # deterministic rails, zero terminal: clamp the expectation backward
        tree = build_lattice(1.0, 2, FULL_TREE)
        l_of_t = {0: -0.2, 1: 0.1}
        u_of_t = {0: 0.4, 1: 0.3}
        L = AdaptedProcess(
            tree, (np.array([-0.2]), np.full(2, 0.1), np.full(4, -1.0))
        )
        U = AdaptedProcess(
            tree, (np.array([0.4]), np.full(2, 0.3), np.full(4, 1.0))
        )
        game = DynkinGame(
            xi=TerminalPayoff(tree, np.zeros(4)),
            g=registry_generator("zero"),
            L=L, U=U,
        )
        # hand dynamic program
        v = np.zeros(4)
        for k in (1, 0):
            v = 0.5 * (v[0::2] + v[1::2])
            v = np.minimum(u_of_t[k], np.maximum(l_of_t[k], v))
        report = game_value_oracle(tree, game)
        assert report.n_rules == 5
        assert report.sup_inf == pytest.approx(float(v[0]), abs=1e-15)
        assert report.inf_sup == pytest.approx(float(v[0]), abs=1e-15)
        assert report.y0 == pytest.approx(float(v[0]), abs=1e-15)

    def test_sup_inf_never_exceeds_inf_sup(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        rng = np.random.default_rng(4)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xi = np.clip(rng.normal(scale=0.4, size=8), -0.9, 0.9)
            game = constant_rails_game(tree, xi, -0.5, 0.6)
            report = game_value_oracle(tree, game)
            assert report.sup_inf <= report.inf_sup + 1e-14
            assert report.oracle_gap <= 1e-10

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_nonlinear_driver_matches_backward_solve(self, scheme):
        tree = build_lattice(1.0, 3, FULL_TREE)
        g = Generator(
            lambda t, s, y, z: -y + 0.5 * np.sin(z),
            kappa=0.5, lam=-1.0, alpha=0.5, h=1.0, name="damped-sin",
        )
        rng = np.random.default_rng(10)
        f = lambda s: np.tanh(s)
        game = DynkinGame(
            xi=TerminalPayoff.from_function(tree, f),
            g=g,
            L=AdaptedProcess.from_function(tree, lambda t, s: f(s) - 0.3),
            U=AdaptedProcess.from_function(tree, lambda t, s: f(s) + 0.35),
        )
        report = game_value_oracle(tree, game, scheme)
        assert report.oracle_gap <= 1e-10, report
        assert report.passed

    def test_size_guard(self):
        tree = build_lattice(1.0, 5, FULL_TREE)
        game = constant_rails_game(tree, np.zeros(32), -1.0, 1.0)
        with pytest.raises(ValueError, match="size guard"):
            game_value_oracle(tree, game)

    def test_large_scale_inputs_rescale_the_tolerance(self):
        # float64 cannot hold absolute 1e-10 agreement at values near 1e6;
        # the comparison rescales once the obstacle scale passes 1e3
        tree = build_lattice(1.0, 3, FULL_TREE)
        f = lambda s: 1e6 * np.tanh(s)
        game = DynkinGame(
            xi=TerminalPayoff.from_function(tree, f),
            g=registry_generator("linear:-0.5,0.3"),
            L=AdaptedProcess.from_function(tree, lambda t, s: f(s) - 3e5),
            U=AdaptedProcess.from_function(tree, lambda t, s: f(s) + 3e5),
        )
        report = game_value_oracle(tree, game, "implicit")
        assert report.effective_tol > report.tol
        assert report.oracle_gap <= report.effective_tol
        assert report.passed

    def test_optimal_pair_deterministic(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        game = constant_rails_game(tree, np.linspace(-0.8, 0.8, 8), -0.4, 0.5)
        a = game_value_oracle(tree, game)
        b = game_value_oracle(tree, game)
        assert a.optimal_pair == b.optimal_pair


class TestSaddle:
    def test_never_binding_rails_stop_at_horizon(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        rng = np.random.default_rng(2)
        xi = np.clip(rng.normal(scale=0.2, size=8), -0.5, 0.5)
        game = constant_rails_game(tree, xi, -100.0, 100.0)
        sol = solve_drbsde(tree, game)
        tau_star = first_hitting(sol, None, "lower")
        gamma_star = first_hitting(sol, None, "upper")
        for k in range(tree.N):
            assert not tau_star.flags[k].any()
            assert not gamma_star.flags[k].any()
        report = verify_saddle(tree, game, sol)
        assert report.passed, report

    def test_upper_player_stops_when_expectation_exceeds_rail(self):
        tree = build_lattice(1.0, 1, FULL_TREE)
        game = constant_rails_game(tree, [3.0, 3.0], -0.5, 0.7)
        sol = solve_drbsde(tree, game)
        gamma_star = first_hitting(sol, None, "upper").canonicalize()
        assert gamma_star.flags[0][0]
        assert strategy_value(tree, game, StoppingRule.horizon(tree), gamma_star) == 0.7
        report = verify_saddle(tree, game, sol)
        assert report.passed

    def test_lower_player_stops_when_expectation_undershoots(self):
        tree = build_lattice(1.0, 1, FULL_TREE)
        game = constant_rails_game(tree, [-2.0, -2.0], -0.5, 0.7)
        sol = solve_drbsde(tree, game)
        tau_star = first_hitting(sol, None, "lower").canonicalize()
        assert tau_star.flags[0][0]
        assert strategy_value(tree, game, tau_star, StoppingRule.horizon(tree)) == -0.5
        report = verify_saddle(tree, game, sol)
        assert report.passed

    def test_reports_serialize(self, tmp_path):
        tree = build_lattice(1.0, 2, FULL_TREE)
        game = constant_rails_game(tree, [0.1, -0.2, 0.3, 0.0], -0.4, 0.5)
        report = game_value_oracle(tree, game)
        write_game_report(tmp_path / "game.txt", report, report.passed)
        text = (tmp_path / "game.txt").read_text()
        assert text.startswith("y0 ")
        assert "passed true" in text
        write_pair_table_csv(tmp_path / "pairs.csv", report.table)
        lines = (tmp_path / "pairs.csv").read_text().splitlines()
        assert lines[0] == "tau_index,gamma_index,value"
        assert len(lines) == 1 + 25  # 5x5 pairs at N=2
        table = pair_value_table(tree, game)
        assert table.shape == (5, 5)
        assert float(table.min(axis=1).max()) == pytest.approx(report.sup_inf)

    def test_deviations_never_beat_the_saddle(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        f = lambda s: np.tanh(s)
        game = DynkinGame(
            xi=TerminalPayoff.from_function(tree, f),
            g=registry_generator("linear:-0.5,0.3"),
            L=AdaptedProcess.from_function(tree, lambda t, s: f(s) - 0.25 - 0.05 * t),
            U=AdaptedProcess.from_function(tree, lambda t, s: f(s) + 0.2 + 0.1 * t),
        )
        sol = solve_drbsde(tree, game)
        report = verify_saddle(tree, game, sol)
        assert report.max_saddle_violation <= 1e-10
        assert report.saddle_equality_gap <= 1e-10
        assert report.sandwich_slack <= 1e-10

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_a_rail_just_off_y_at_one_node_keeps_the_saddle(self, scheme):
        # the README game at N = 4 with one rail moved to delta from Y at one
        # node where it does not bind: Y keeps its bits, the node is no
        # contact, and the saddle check passes wherever the oracle does
        tree = build_lattice(1.0, 4, FULL_TREE)
        f = lambda s: np.maximum(s, -0.8)
        xi, g = TerminalPayoff.from_function(tree, f), registry_generator("linear:-0.5,0.3")
        rails = {"L": AdaptedProcess.from_function(tree, lambda t, s: f(s) - 0.3 - 0.1 * t),
                 "U": AdaptedProcess.from_function(tree, lambda t, s: f(s) + 0.25 + 0.1 * t)}
        y = solve_drbsde(tree, DynkinGame(xi=xi, g=g, **rails), scheme).Y
        checked = 0
        for delta, k, side in itertools.product((1.5e-10, 9e-10, 2.7e-9), range(4), rails):
            free = np.flatnonzero(y[k] != rails[side][k])
            if not free.size:
                continue
            moved = [a.copy() for a in rails[side].values]
            moved[k][free[0]] = y[k][free[0]] + (-delta if side == "L" else delta)
            try:
                game = DynkinGame(xi=xi, g=g, **{**rails, side: AdaptedProcess(tree, tuple(moved))})
            except SeparationError:  # the moved rail came within the floor of the other
                continue
            sol = solve_drbsde(tree, game, scheme)
            for a, b in zip(sol.Y.values, y.values, strict=True):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
            oracle = game_value_oracle(tree, game, scheme, solution=sol)
            saddle = verify_saddle(tree, game, sol, scheme)
            assert oracle.passed and saddle.passed, (delta, k, side, saddle.max_saddle_violation)
            checked += 1
        assert checked == 20  # the separation floor refuses the other 4


def reference_pair_table_block(tree, game, tau_flags, gamma_flags, scheme):
    """The pair-table block as first written: one step over the full
    ``(a, b, 2**k)`` broadcast of every pair at every node."""
    a = tau_flags[0].shape[0]
    b = gamma_flags[0].shape[0]
    n = tree.N
    v = np.broadcast_to(game.xi.values, (a, b, 1 << n)).copy()
    for k in range(n - 1, -1, -1):
        cand, _ = step_candidate(tree, game.g, k, v, scheme)
        stop_t = tau_flags[k][:, None, :]
        stop_g = gamma_flags[k][None, :, :]
        pay = np.where(stop_g, game.U[k], game.L[k])
        v = np.where(stop_t | stop_g, pay, cand)
    return v[..., 0]


def reference_write_pair_table_csv(path, table):
    """The pair-table dump as first written: one ``csv`` row per pair."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["tau_index", "gamma_index", "value"])
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                w.writerow([i, j, f"{table[i, j]:.17g}"])


@pytest.fixture(scope="module")
def tabulated_driver(tmp_path_factory):
    from test_golden import write_tanh_sin_driver

    path = tmp_path_factory.mktemp("driver") / "driver.npz"
    write_tanh_sin_driver(path)
    return f"driver-file:{path}"


def separated_game(tree, g, shift=0.0):
    f = lambda s: np.tanh(s + shift)
    return DynkinGame(
        xi=TerminalPayoff.from_function(tree, f),
        g=g,
        L=AdaptedProcess.from_function(tree, lambda t, s: f(s) - 0.3 - 0.05 * t),
        U=AdaptedProcess.from_function(tree, lambda t, s: f(s) + 0.25 + 0.1 * t),
    )


def stacked_rules(tree):
    rules = enumerate_stopping_rules(tree)
    return [np.stack([r.flags[k] for r in rules]) for k in range(tree.N + 1)]


class TestPairTableClasses:
    DRIVERS = ["linear:0.5,0.3", "linear:-0.5,0.3", "constant:0.2", "tabulated", "stopped"]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), scheme=st.sampled_from(["explicit", "implicit"]),
           driver=st.sampled_from(DRIVERS),
           layout=st.sampled_from(["block", "saddle-row", "saddle-column", "random"]),
           data=st.data())
    def test_matches_the_full_broadcast_bitwise(self, tabulated_driver, n, scheme,
                                                driver, layout, data):
        tree = build_lattice(1.0, n, FULL_TREE)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        if driver == "tabulated":
            g = registry_generator(tabulated_driver)
        elif driver == "stopped":
            g = stop_generator(registry_generator("linear:0.5,0.3"),
                               StoppingRule.at_step(tree, int(rng.integers(0, n + 1))))
        else:
            g = registry_generator(driver)
        game = separated_game(tree, g, shift=float(rng.uniform(-0.5, 0.5)))
        if layout == "random":
            # any flags, not only canonical rules: flags after a stop and
            # at the horizon too
            a, b = data.draw(st.integers(1, 40), label="a"), data.draw(st.integers(1, 40), label="b")
            p = data.draw(st.sampled_from([0.05, 0.3, 0.7]), label="p")
            tau = [rng.random((a, 1 << k)) < p for k in range(n + 1)]
            gamma = [rng.random((b, 1 << k)) < p for k in range(n + 1)]
        else:
            stacked = stacked_rules(tree)
            count = stacked[0].shape[0]
            if layout == "block":
                size = data.draw(st.integers(1, 64), label="size")
                lo = data.draw(st.integers(0, count - 1), label="lo")
                tau, gamma = [f[lo:lo + size] for f in stacked], stacked
            else:
                sol = solve_drbsde(tree, game, scheme)
                side = "upper" if layout == "saddle-row" else "lower"
                star = [f[None, :] for f in first_hitting(sol, None, side).canonicalize().flags]
                tau, gamma = (stacked, star) if side == "upper" else (star, stacked)
        got = dynkin._pair_table_block(tree, game, tau, gamma, scheme)
        want = reference_pair_table_block(tree, game, tau, gamma, scheme)
        assert got.shape == want.shape == (tau[0].shape[0], gamma[0].shape[0])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_pair_table_csv_matches_the_row_writer(self, tmp_path):
        tree = build_lattice(1.0, 3, FULL_TREE)
        game = separated_game(tree, registry_generator("linear:-0.5,0.3"))
        table = pair_value_table(tree, game, "implicit")
        table[1, 2], table[3, 4] = -0.0, np.nan  # signed zero and NaN format too
        write_pair_table_csv(tmp_path / "new.csv", table)
        reference_write_pair_table_csv(tmp_path / "old.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.fixture(scope="module")
def implicit_game_table():
    tree = build_lattice(1.0, 4, FULL_TREE)
    game = separated_game(tree, registry_generator("linear:-0.5,0.3"))
    return tree, game, pair_value_table(tree, game, "implicit")


# 677 ** 2 = 458,329 rows, past SPLIT_MIN: the split child writes the upper half
def test_pair_table_csv_split_and_serial_match_the_row_writer(implicit_game_table,
                                                              force_split, tmp_path):
    _, _, table = implicit_game_table
    reference_write_pair_table_csv(tmp_path / "old.csv", table)
    for on in (False, True):
        forks = force_split(on)
        write_pair_table_csv(tmp_path / f"{on}.csv", table)
        assert len(forks) == on
        assert (tmp_path / f"{on}.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestPairValuesStandAlone:
    """A pair's value depends on the pair alone, not on what is solved with it."""

    @settings(max_examples=25, deadline=None)
    @given(i=st.integers(0, 676), j=st.integers(0, 676))
    def test_strategy_value_is_its_table_entry(self, implicit_game_table, i, j):
        tree, game, table = implicit_game_table
        rules = enumerate_stopping_rules(tree)
        value = strategy_value(tree, game, rules[i], rules[j], "implicit")
        assert np.float64(value).view(np.int64) == table[i, j].view(np.int64)

    def test_saddle_pair_value_is_the_solved_value(self, implicit_game_table):
        tree, game, table = implicit_game_table
        report = game_value_oracle(tree, game, "implicit")
        assert report.oracle_gap == 0.0
        i, j = report.optimal_pair
        assert table[i, j] == report.y0 == solve_drbsde(tree, game, "implicit").root_value


def readme_game(tree):
    """The README example's game: ``max(state, -0.8)`` between its rails."""
    f = lambda s: np.maximum(s, -0.8)
    return DynkinGame(
        xi=TerminalPayoff.from_function(tree, f),
        g=registry_generator("linear:-0.5,0.3"),
        L=AdaptedProcess.from_function(tree, lambda t, s: f(s) - 0.3 - 0.1 * t),
        U=AdaptedProcess.from_function(tree, lambda t, s: f(s) + 0.25 + 0.1 * t),
    )


def batch_spy(seen):
    """``step_candidate`` that records each call's step and batch."""

    def spy(lattice, g, k, next_values, scheme, stats=None):
        seen.append((k, np.array(next_values)))
        return bsde.step_candidate(lattice, g, k, next_values, scheme, stats)

    return spy


def distinct_bits(values):
    """Each node's (last axis) distinct bit patterns, sorted."""
    return [np.unique(values[..., j].view(np.int64)) for j in range(values.shape[-1])]


def reference_table(tree, game, scheme):
    """Every canonical pair's root value by the full broadcast, ``64`` rows
    of the first player a sweep."""
    stacked = stacked_rules(tree)
    return np.concatenate([
        reference_pair_table_block(tree, game, [f[lo:lo + 64] for f in stacked], stacked, scheme)
        for lo in range(0, len(stacked[0]), 64)])


class TestDistinctChildValues:
    """Each step solves every pair of a distinct down-child value and a
    distinct up-child value per node once."""

    DRIVERS = [*TestPairTableClasses.DRIVERS, "zero"]

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("n,driver", [(n, d) for d in DRIVERS for n in (1, 2, 3)]
                             + [(4, "linear:-0.5,0.3")])
    def test_pair_value_table_is_the_full_broadcast(self, tabulated_driver, n, driver, scheme):
        tree = build_lattice(1.0, n, FULL_TREE)
        rng = np.random.default_rng(n)
        if driver == "tabulated":
            g = registry_generator(tabulated_driver)
        elif driver == "stopped":
            g = stop_generator(registry_generator("linear:0.5,0.3"),
                               StoppingRule.at_step(tree, int(rng.integers(0, n + 1))))
        else:
            g = registry_generator(driver)
        game = separated_game(tree, g, shift=float(rng.uniform(-0.5, 0.5)))
        got = pair_value_table(tree, game, scheme)
        want = reference_table(tree, game, scheme)
        assert got.shape == want.shape == (rule_count(n),) * 2
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("lopsided", [False, True], ids=["readme", "lopsided"])
    def test_each_step_solves_each_nodes_distinct_child_values(self, scheme, lopsided):
        # the full broadcast's step-(k+1) values at a node are that node's
        # subtree table: every pair of canonical rules there; on the down
        # half, terminal data at the upper rail makes waiting pay that rail,
        # so its nodes have fewer distinct values
        n = 3
        tree = build_lattice(1.0, n, FULL_TREE)
        if lopsided:
            game = constant_rails_game(tree, [0.5] * 4 + [0.1, -0.2, 0.3, 0.05], -0.5, 0.5)
        else:
            game = readme_game(tree)
        got, want = [], []
        with mock.patch.object(dynkin, "step_candidate", batch_spy(got)):
            pair_value_table(tree, game, scheme)
        with mock.patch.dict(globals(), step_candidate=batch_spy(want)):
            stacked = stacked_rules(tree)
            reference_pair_table_block(tree, game, stacked, stacked, scheme)
        assert [k for k, _ in got] == [k for k, _ in want] == list(range(n - 1, -1, -1))
        for (k, batch), (_, full) in zip(got, want):
            down, up = distinct_bits(full[..., 0::2]), distinct_bits(full[..., 1::2])
            assert batch.shape == (max(map(len, down)), max(map(len, up)), 2 << k)
            # each node's own children's distinct values, no fewer and no
            # more: a node with fewer repeats one of its own
            for g, w in zip(distinct_bits(batch[..., 0::2]), down):
                np.testing.assert_array_equal(g, w)
            for g, w in zip(distinct_bits(batch[..., 1::2]), up):
                np.testing.assert_array_equal(g, w)
        assert sum(b.size for _, b in got) < sum(b.size for _, b in want) / 10

    def test_signed_zeros_stay_separate_rows(self):
        # the lower rail is -0.0 at one step-1 node, where continuing gives
        # +0.0: that node's table holds both, and the root batch keeps them
        # apart
        tree = build_lattice(1.0, 2, FULL_TREE)
        lower = (np.array([-1.0]), np.array([-0.0, -1.0]), np.full(4, -1.0))
        game = DynkinGame(
            xi=TerminalPayoff(tree, np.zeros(4)),
            g=registry_generator("zero"),
            L=AdaptedProcess(tree, lower),
            U=AdaptedProcess(tree, tuple(np.ones(tree.n_nodes(k)) for k in range(3))),
        )
        seen = []
        with mock.patch.object(dynkin, "step_candidate", batch_spy(seen)):
            got = pair_value_table(tree, game, "explicit")
        root = dict(seen)[0]
        assert set(root[..., 0].ravel().view(np.int64)) == {
            0, np.float64(-0.0).view(np.int64), np.float64(1.0).view(np.int64)}
        want = reference_table(tree, game, "explicit")
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_a_family_at_depth(self, scheme):
        # 128 random-flag rows against one rule at N = 12: bitwise the full
        # broadcast
        n = 12
        tree = build_lattice(1.0, n, FULL_TREE)
        game = separated_game(tree, registry_generator("linear:-0.5,0.3"))
        rng = np.random.default_rng(12)
        tau = [rng.random((128, 1 << k)) < 0.5 for k in range(n + 1)]
        gamma = [f[None] for f in random_rule(tree, rng).flags]
        value = dynkin._pair_table_block(tree, game, tau, gamma, scheme)
        want = reference_pair_table_block(tree, game, tau, gamma, scheme)
        np.testing.assert_array_equal(value.view(np.int64), want.view(np.int64))
