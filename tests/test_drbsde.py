import numpy as np
import pytest

from drbsde_lab.bsde import solve_bsde
from drbsde_lab.drbsde import (
    DynkinGame,
    SeparationError,
    cross_validate,
    double_penalization,
    pasting_construct,
    solve_drbsde,
    write_ledger_csv,
)
from drbsde_lab.generator import registry_generator
from drbsde_lab.lattice import (
    FULL_TREE,
    AdaptedProcess,
    TerminalPayoff,
    build_lattice,
)
from drbsde_lab.rbsde import solve_rbsde


def sup_gap(a, b):
    lat = a.lattice
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in range(lat.N + 1))


def make_game(lattice, seed=0, driver=None, low_off=0.3, up_off=0.3):
    rng = np.random.default_rng(seed)
    a = low_off + rng.uniform(0.0, 0.2)
    b = up_off + rng.uniform(0.0, 0.2)
    shift = rng.uniform(-0.3, 0.3)
    f = lambda s: np.tanh(s + shift)
    g = driver or registry_generator("linear:-0.5,0.3")
    return DynkinGame(
        xi=TerminalPayoff.from_function(lattice, f),
        g=g,
        L=AdaptedProcess.from_function(lattice, lambda t, s: f(s) - a - 0.15 * t),
        U=AdaptedProcess.from_function(lattice, lambda t, s: f(s) + b - 0.1 * (1 - t)),
    )


class TestGameValidation:
    def test_separation_error_names_node(self):
        lat = build_lattice(1.0, 4)
        with pytest.raises(SeparationError, match=r"\(k=4, id="):
            DynkinGame(
                xi=TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s)),
                g=registry_generator("zero"),
                L=AdaptedProcess.from_function(lat, lambda t, s: s),
                U=AdaptedProcess.constant(lat, 0.5),
            )

    @pytest.mark.parametrize("rail,value", [("L", np.nan), ("U", np.nan), ("U", np.inf),
                                            ("L", np.inf)])
    def test_non_finite_gap_fails_and_is_named(self, rail, value):
        # one spoiled node at a later step: the margin test must still fail,
        # and the error must name that node, not the narrowest finite gap
        lat = build_lattice(1.0, 4)
        game = make_game(lat, seed=1)
        vals = [v.copy() for v in getattr(game, rail).values]
        vals[3][2] = value
        rails = {"L": game.L, "U": game.U, rail: AdaptedProcess(lat, tuple(vals))}
        with pytest.raises(SeparationError, match=rf"\(k=3, id={lat.node_ids(3)[2]}\)"):
            DynkinGame(xi=game.xi, g=game.g, **rails)

    def test_terminal_must_sit_between_rails(self):
        lat = build_lattice(1.0, 2)
        with pytest.raises(ValueError, match="below the lower rail"):
            DynkinGame(
                xi=TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s)),
                g=registry_generator("zero"),
                L=AdaptedProcess.constant(lat, 0.5),
                U=AdaptedProcess.constant(lat, 1.0),
            )

    @pytest.mark.parametrize("rail,where", [("L", "below the lower"),
                                            ("U", "above the upper")])
    def test_terminal_order_error_names_the_full_tree_node(self, rail, where):
        # both rails move past the terminal data at the node with word 10011
        tree = build_lattice(1.0, 5, FULL_TREE)
        game = make_game(tree, seed=1)
        rails = {}
        for name in ("L", "U"):
            vals = [v.copy() for v in getattr(game, name).values]
            vals[5][0b10011] += 1.0 if rail == "L" else -1.0
            rails[name] = AdaptedProcess(tree, tuple(vals))
        with pytest.raises(ValueError, match=rf"terminal data {where} rail at node "
                                             rf"\(k=5, id=10011\)"):
            DynkinGame(xi=game.xi, g=game.g, **rails)

    def test_margin_reported(self):
        lat = build_lattice(1.0, 4)
        game = make_game(lat, seed=1)
        assert game.separation_margin() > 0.3


class TestSolveDrbsde:
    def test_symmetric_zero_game(self):
        lat = build_lattice(1.0, 8)
        game = DynkinGame(
            xi=TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s)),
            g=registry_generator("zero"),
            L=AdaptedProcess.constant(lat, -1.0),
            U=AdaptedProcess.constant(lat, 1.0),
        )
        sol = solve_drbsde(lat, game)
        assert sol.Y.sup_norm() == 0.0
        assert sol.dK.sup_norm() == 0.0 and sol.dJ.sup_norm() == 0.0

    def test_one_step_value_is_clamped_expectation(self):
        # oracle: the 2x2 stop/continue matrix of the one-step game; its
        # value is max(L0, min(U0, E[xi])) for separated rails
        lat = build_lattice(1.0, 1, FULL_TREE)
        for e, l0, u0 in [(3.0, -0.5, 0.7), (-2.0, -0.5, 0.7), (0.4, -0.5, 0.7)]:
            game = DynkinGame(
                xi=TerminalPayoff(lat, np.array([e, e])),
                g=registry_generator("zero"),
                L=AdaptedProcess(lat, (np.array([l0]), np.full(2, min(e, l0) - 1))),
                U=AdaptedProcess(lat, (np.array([u0]), np.full(2, max(e, u0) + 1))),
            )
            matrix = np.array([[u0, l0], [u0, e]])  # rows: stop/wait, cols likewise
            supinf = matrix.min(axis=1).max()
            infsup = matrix.max(axis=0).min()
            sol = solve_drbsde(lat, game)
            assert supinf == infsup == pytest.approx(max(l0, min(u0, e)))
            assert sol.root_value == pytest.approx(supinf, abs=1e-15)

    def test_never_binding_upper_degenerates_to_one_obstacle(self):
        lat = build_lattice(1.0, 10)
        rng = np.random.default_rng(2)
        f = lambda s: np.tanh(s)
        g = registry_generator("linear:-0.4,0.2")
        xi = TerminalPayoff.from_function(lat, f)
        L = AdaptedProcess.from_function(lat, lambda t, s: f(s) - 0.4 + 0.1 * t)
        game = DynkinGame(
            xi=xi, g=g, L=L, U=AdaptedProcess.constant(lat, 1e6),
        )
        sol = solve_drbsde(lat, game)
        ref = solve_rbsde(lat, xi, g, L, "lower")
        assert sup_gap(sol.Y, ref.Y) == 0.0
        assert sol.dJ.sup_norm() == 0.0

    def test_rails_respected_and_compensators_disjoint(self):
        lat = build_lattice(1.0, 16)
        game = make_game(lat, seed=3)
        sol = solve_drbsde(lat, game)
        for k in range(lat.N + 1):
            assert np.all(sol.Y[k] >= game.L[k])
            assert np.all(sol.Y[k] <= game.U[k])
            assert np.all(sol.dK[k] >= 0.0)
            assert np.all(sol.dJ[k] >= 0.0)
            assert np.all(sol.dK[k] * sol.dJ[k] == 0.0)
        assert sol.flat_off_lower() == 0.0
        assert sol.flat_off_upper() == 0.0

    def test_clamp_order_commutes_under_separation(self):
        lat = build_lattice(1.0, 8)
        game = make_game(lat, seed=4)
        rng = np.random.default_rng(0)
        for k in range(lat.N + 1):
            x = rng.normal(scale=2.0, size=lat.n_nodes(k))
            a = np.minimum(game.U[k], np.maximum(game.L[k], x))
            b = np.maximum(game.L[k], np.minimum(game.U[k], x))
            np.testing.assert_array_equal(a, b)


class TestDoublePenalization:
    def test_level_zero_increasing_is_upper_reflected(self):
        lat = build_lattice(1.0, 8)
        game = make_game(lat, seed=5)
        levels, _ = double_penalization(lat, game, [0.0], "increasing")
        ref = solve_rbsde(lat, game.xi, game.g, game.U, "upper")
        assert sup_gap(levels[0].Y, ref.Y) <= 1e-12

    def test_level_zero_decreasing_is_lower_reflected(self):
        lat = build_lattice(1.0, 8)
        game = make_game(lat, seed=5)
        levels, _ = double_penalization(lat, game, [0.0], "decreasing")
        ref = solve_rbsde(lat, game.xi, game.g, game.L, "lower")
        assert sup_gap(levels[0].Y, ref.Y) == 0.0

    def test_one_step_brackets_shrink(self):
        # closed-form one-step algebra: with the expectation e strictly
        # outside the rails, level n sits (e - rail)/(1 + dt n) away from it
        lat = build_lattice(1.0, 1, FULL_TREE)
        e, l0, u0 = 3.0, -0.5, 0.7
        game = DynkinGame(
            xi=TerminalPayoff(lat, np.array([e, e])),
            g=registry_generator("zero"),
            L=AdaptedProcess(lat, (np.array([l0]), np.full(2, l0 - 1))),
            U=AdaptedProcess(lat, (np.array([u0]), np.full(2, e + 1))),
        )
        schedule = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]
        dec_levels, dec_rep = double_penalization(lat, game, schedule, "decreasing")
        for n, lv in zip(schedule, dec_levels):
            expected = u0 + (e - u0) / (1 + lat.dt * n)
            assert lv.root_value == pytest.approx(expected, abs=1e-14)
        inc_levels, inc_rep = double_penalization(lat, game, schedule, "increasing")
        for lv in inc_levels:
            assert lv.root_value == pytest.approx(u0, abs=1e-14)  # clamp binds
        assert dec_rep.total_violations == 0 and inc_rep.total_violations == 0

    def test_squeeze_and_order(self):
        lat = build_lattice(1.0, 16)
        game = make_game(lat, seed=6)
        schedule = [1, 4, 16, 64, 256, 1024]
        direct = solve_drbsde(lat, game)
        inc_levels, inc_rep = double_penalization(lat, game, schedule, "increasing")
        dec_levels, dec_rep = double_penalization(lat, game, schedule, "decreasing")
        assert inc_rep.total_violations == 0
        assert dec_rep.total_violations == 0
        tol = 1e-12
        for inc, dec in zip(inc_levels, dec_levels):
            for k in range(lat.N + 1):
                assert np.all(inc.Y[k] <= direct.Y[k] + tol)
                assert np.all(direct.Y[k] <= dec.Y[k] + tol)
                assert np.all(inc.Y[k] <= dec.Y[k] + tol)

    def test_squeeze_width_shrinks(self):
        lat = build_lattice(1.0, 16)
        game = make_game(lat, seed=7)
        levels_inc, rep_inc = double_penalization(lat, game, [1024.0], "increasing")
        levels_dec, rep_dec = double_penalization(lat, game, [1024.0], "decreasing")
        width = sup_gap(levels_inc[0].Y, levels_dec[0].Y)
        scale = game.scale()
        assert width <= 1e-2 * scale


class TestPasting:
    def test_never_binding_upper_single_segment(self):
        tree = build_lattice(1.0, 6, FULL_TREE)
        f = lambda s: np.tanh(s)
        g = registry_generator("linear:-0.4,0.2")
        xi = TerminalPayoff.from_function(tree, f)
        L = AdaptedProcess.from_function(tree, lambda t, s: f(s) - 0.35 + 0.05 * t)
        game = DynkinGame(xi=xi, g=g, L=L, U=AdaptedProcess.constant(tree, 1e6))
        pasted, ledger = pasting_construct(tree, game)
        assert ledger.max_depth == 1
        assert ledger.sides == ("lower",)
        ref = solve_rbsde(tree, xi, g, L, "lower")
        assert sup_gap(pasted.Y, ref.Y) == 0.0

    def test_never_binding_both_is_plain_solve(self):
        tree = build_lattice(1.0, 6, FULL_TREE)
        xi = TerminalPayoff.from_function(tree, lambda s: np.tanh(s))
        g = registry_generator("linear:-0.3,0.2")
        game = DynkinGame(
            xi=xi, g=g,
            L=AdaptedProcess.constant(tree, -1e6),
            U=AdaptedProcess.constant(tree, 1e6),
        )
        pasted, ledger = pasting_construct(tree, game)
        assert ledger.max_depth == 1
        ref = solve_bsde(tree, xi, g)
        assert sup_gap(pasted.Y, ref.Y) == 0.0

    def test_one_step_interior_expectation(self):
        tree = build_lattice(1.0, 1, FULL_TREE)
        game = DynkinGame(
            xi=TerminalPayoff(tree, np.array([0.2, -0.1])),
            g=registry_generator("constant:0.1"),
            L=AdaptedProcess(tree, (np.array([-0.5]), np.full(2, -1.0))),
            U=AdaptedProcess(tree, (np.array([0.7]), np.full(2, 1.0))),
        )
        pasted, ledger = pasting_construct(tree, game)
        assert ledger.max_depth == 1
        assert pasted.root_value == pytest.approx(0.05 + 0.1 * 1.0, abs=1e-15)

    def test_agrees_with_direct_on_contact_rich_games(self):
        for seed in range(6):
            tree = build_lattice(1.0, 7, FULL_TREE)
            game = make_game(tree, seed=seed, low_off=0.15, up_off=0.12)
            pasted, ledger = pasting_construct(tree, game)
            direct = solve_drbsde(tree, game)
            assert sup_gap(pasted.Y, direct.Y) <= 1e-10
            assert int(ledger.segments_by_terminal.max()) <= tree.N + 1
            if seed == 0:
                assert ledger.max_depth >= 2  # contacts actually alternate

    def test_agrees_under_implicit_scheme(self):
        tree = build_lattice(1.0, 6, FULL_TREE)
        game = make_game(tree, seed=2, low_off=0.15, up_off=0.12)
        pasted, _ = pasting_construct(tree, game, scheme="implicit")
        direct = solve_drbsde(tree, game, scheme="implicit")
        assert sup_gap(pasted.Y, direct.Y) <= 1e-12

    def test_ledger_alternates_sides(self):
        tree = build_lattice(1.0, 7, FULL_TREE)
        game = make_game(tree, seed=0, low_off=0.15, up_off=0.12)
        _, ledger = pasting_construct(tree, game)
        for i, side in enumerate(ledger.sides):
            assert side == ("lower" if i % 2 == 0 else "upper")

    def test_requires_full_tree(self):
        lat = build_lattice(1.0, 6)
        game = make_game(lat, seed=1)
        with pytest.raises(ValueError, match="full tree"):
            pasting_construct(lat, game)

    def test_ledger_csv(self, tmp_path):
        tree = build_lattice(1.0, 6, FULL_TREE)
        game = make_game(tree, seed=0, low_off=0.15, up_off=0.12)
        _, ledger = pasting_construct(tree, game)
        write_ledger_csv(tmp_path / "ledger.csv", ledger)
        lines = (tmp_path / "ledger.csv").read_text().splitlines()
        assert lines[0] == "segment,side,start_rule,end_rule,node_count"
        assert len(lines) == 1 + ledger.max_depth


class TestBackendAgreement:
    def test_solvers_agree_across_backends(self):
        # state-measurable data must give the same values on the random walk
        # and on the full tree, matched through the up-move count
        n = 10
        rec = build_lattice(1.0, n)
        tree = build_lattice(1.0, n, FULL_TREE)

        def game_on(lat):
            f = lambda s: np.tanh(s)
            return DynkinGame(
                xi=TerminalPayoff.from_function(lat, f),
                g=registry_generator("linear:-0.5,0.3"),
                L=AdaptedProcess.from_function(lat, lambda t, s: f(s) - 0.3 - 0.1 * t),
                U=AdaptedProcess.from_function(lat, lambda t, s: f(s) + 0.25),
            )

        sol_r = solve_drbsde(rec, game_on(rec))
        sol_t = solve_drbsde(tree, game_on(tree))
        for k in range(n + 1):
            ups = tree.up_counts(k)
            np.testing.assert_allclose(
                sol_t.Y[k], sol_r.Y[k][ups], atol=1e-12, rtol=0
            )


class TestRootContact:
    def test_upper_contact_at_root_leaves_first_segment_empty(self):
        tree = build_lattice(1.0, 5, FULL_TREE)
        # the expectation of the terminal data exceeds the upper rail near
        # the root, so the solution starts glued to it
        game = DynkinGame(
            xi=TerminalPayoff.from_function(tree, lambda s: np.full_like(s, 2.0)),
            g=registry_generator("zero"),
            L=AdaptedProcess.from_function(
                tree, lambda t, s: np.where(t >= 1.0, -1.0, -0.5) * np.ones_like(s)
            ),
            U=AdaptedProcess.from_function(
                tree, lambda t, s: np.where(t >= 1.0, 3.0, 0.5) * np.ones_like(s)
            ),
        )
        direct = solve_drbsde(tree, game)
        assert direct.root_value == pytest.approx(0.5)
        pasted, ledger = pasting_construct(tree, game)
        assert sup_gap(pasted.Y, direct.Y) == 0.0
        assert ledger.sides[0] == "lower"
        assert ledger.node_counts[0] == 0  # flipped before it ever owned a node
        assert int(ledger.segments_by_terminal.max()) <= tree.N + 1


class TestCrossValidate:
    def test_routes_agree(self):
        tree = build_lattice(1.0, 7, FULL_TREE)
        game = make_game(tree, seed=8)
        report = cross_validate(tree, game)
        assert report.gap_direct_pasting <= 1e-10
        assert report.squeeze_violation <= 1e-12
        assert report.order_violation <= 1e-12
        assert report.flat_off_lower == 0.0
        assert report.flat_off_upper == 0.0
        # penalty-cap gap controlled by the one-step closed form scale
        assert report.gap_direct_increasing <= game.scale() / (1 + tree.dt * 1024) * tree.N

    def test_symmetric_game_all_routes_zero(self):
        tree = build_lattice(1.0, 6, FULL_TREE)
        game = DynkinGame(
            xi=TerminalPayoff.from_function(tree, lambda s: np.tanh(s)),
            g=registry_generator("zero"),
            L=AdaptedProcess.constant(tree, -0.99),
            U=AdaptedProcess.constant(tree, 0.99),
        )
        direct = solve_drbsde(tree, game)
        pasted, _ = pasting_construct(tree, game)
        inc, _ = double_penalization(tree, game, [1024.0], "increasing")
        dec, _ = double_penalization(tree, game, [1024.0], "decreasing")
        for sol in (direct, pasted, inc[0], dec[0]):
            assert abs(sol.root_value) <= 1e-12


class TestBatchedLevels:
    @pytest.mark.parametrize("driver", ["linear", "stopped", "tanh-sin"])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_levels_equal_separate_runs(self, scheme, direction, driver):
        from test_bsde import batch_driver, same_bits

        tree = build_lattice(1.0, 6, FULL_TREE)
        game = make_game(tree, seed=4, driver=batch_driver(driver, tree))
        schedule = (1.0, 16.0, 256.0, 4096.0)
        levels, _ = double_penalization(tree, game, schedule, direction, scheme)
        for n, level in zip(schedule, levels):
            (alone,), _ = double_penalization(tree, game, (n,), direction, scheme)
            assert level.meta == alone.meta and level.meta["penalty_level"] == n
            for name in ("Y", "Z", "dK", "dJ"):
                assert same_bits(getattr(level, name), getattr(alone, name))
