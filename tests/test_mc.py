import numpy as np
import pytest

from drbsde_lab.drbsde import DynkinGame, solve_drbsde
from drbsde_lab.generator import registry_generator
from drbsde_lab.lattice import AdaptedProcess, TerminalPayoff, build_lattice
from drbsde_lab.mc import (
    McProblem,
    RegressionBasis,
    SingularRegressionError,
    _project,
    mc_terminal,
    simulate_paths,
    solve_mc,
    write_bundle_csv,
    write_mc_sidecar,
)


class TestSimulate:
    def test_bit_exact_reproducibility(self):
        a = simulate_paths(1, 1.0, 8, 500, 42)
        b = simulate_paths(1, 1.0, 8, 500, 42)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.states, b.states)

    def test_per_path_derivation_independent_of_bundle_size(self):
        big = simulate_paths(1, 1.0, 8, 1000, 7)
        small = simulate_paths(1, 1.0, 8, 100, 7)
        assert np.array_equal(big.increments[:100], small.increments)

    @pytest.mark.parametrize("d,seed", [(1, 2026), (3, -5)])
    def test_draws_match_a_fresh_generator_per_path(self, d, seed):
        # reference: one Philox per path keyed by the 128-bit (seed, path)
        paths = simulate_paths(d, 1.0, 4, 150, seed)
        base = (seed & ((1 << 64) - 1)) << 64
        for i in (0, 1, 149):
            gen = np.random.Generator(np.random.Philox(key=base + i))
            expected = gen.standard_normal((4, d)) * np.sqrt(0.25)
            assert np.array_equal(paths.increments[i], expected)

    def test_seed_changes_draws(self):
        a = simulate_paths(1, 1.0, 8, 200, 1)
        b = simulate_paths(1, 1.0, 8, 200, 2)
        assert not np.array_equal(a.increments, b.increments)

    def test_sanity_gates(self):
        paths = simulate_paths(1, 1.0, 16, 20000, 3)
        assert paths.gate_ok
        var = paths.diagnostics["increment_var"][0]
        assert abs(var - paths.dt) <= 0.1 * paths.dt

    def test_cross_covariance_gate_d2(self):
        paths = simulate_paths(2, 1.0, 8, 10000, 5)
        assert paths.diagnostics["cross_gate_ok"]
        assert paths.diagnostics["max_cross_covariance"] <= 3 * paths.dt / np.sqrt(10000)

    def test_size_guards(self):
        with pytest.raises(ValueError):
            simulate_paths(1, 1.0, 8, 50, 0)
        with pytest.raises(ValueError):
            simulate_paths(0, 1.0, 8, 100, 0)
        with pytest.raises(ValueError):
            simulate_paths(1, -1.0, 8, 100, 0)


class TestRegression:
    def test_singular_design_is_fatal_with_diagnostics(self):
        design = np.column_stack([np.ones(50), np.ones(50)])
        with pytest.raises(SingularRegressionError, match="singular values"):
            _project(design, np.random.default_rng(0).normal(size=(50, 1)))

    def test_polynomial_design_shape(self):
        basis = RegressionBasis("polynomial", 3)
        states = np.random.default_rng(0).normal(size=(100, 1))
        design, _ = basis.design(states)
        assert design.shape == (100, 4)

    def test_indicator_bins(self):
        basis = RegressionBasis("indicator-bins", bins=6)
        states = np.random.default_rng(0).normal(size=(500, 1))
        design, edges = basis.design(states)
        assert design.shape[1] <= 6
        np.testing.assert_allclose(design.sum(axis=1), 1.0)


class TestSolve:
    def test_martingale_payoff_estimates_zero(self):
        paths = simulate_paths(1, 1.0, 8, 20000, 42)
        res = solve_mc(paths, McProblem(terminal=lambda s: s[:, 0]),
                       registry_generator("zero"))
        assert abs(res.y0) <= 3 * res.stderr

    def test_constant_driver_shifts_by_ct(self):
        paths = simulate_paths(1, 1.0, 8, 20000, 42)
        res = solve_mc(paths, McProblem(terminal=lambda s: s[:, 0]),
                       registry_generator("constant:0.3"))
        emp = float(paths.states[:, -1, 0].mean())
        assert abs(res.y0 - emp - 0.3) <= 3 * res.stderr

    def test_determinism(self):
        paths = simulate_paths(1, 1.0, 8, 5000, 9)
        prob = McProblem(
            terminal=lambda s: np.tanh(s[:, 0]),
            lower=lambda t, s: np.tanh(s[:, 0]) - 0.3,
            upper=lambda t, s: np.tanh(s[:, 0]) + 0.3,
        )
        g = registry_generator("linear:-0.5,0.3")
        r1 = solve_mc(paths, prob, g)
        r2 = solve_mc(paths, prob, g)
        assert r1.y0 == r2.y0
        assert r1.stderr == r2.stderr

    def test_obstacles_enforced_path_wise(self):
        paths = simulate_paths(1, 1.0, 8, 2000, 1)
        prob = McProblem(
            terminal=lambda s: np.tanh(s[:, 0]),
            lower=lambda t, s: np.tanh(s[:, 0]) - 0.2,
            upper=lambda t, s: np.tanh(s[:, 0]) + 0.2,
        )
        res = solve_mc(paths, prob, registry_generator("linear:-0.4,0.2"))
        assert res.flat_off_lower == 0.0
        assert res.flat_off_upper == 0.0

    def test_standard_error_shrinks_with_m(self):
        prob = McProblem(terminal=lambda s: s[:, 0])
        g = registry_generator("constant:0.2")
        se = {}
        for m in (4000, 16000):
            paths = simulate_paths(1, 1.0, 8, m, 11)
            se[m] = solve_mc(paths, prob, g).stderr
        ratio = se[16000] / se[4000]
        assert 0.4 <= ratio <= 0.6, se

    def test_penalty_route_approaches_clamp(self):
        paths = simulate_paths(1, 1.0, 8, 5000, 21)
        prob = McProblem(
            terminal=lambda s: np.maximum(0.3 - s[:, 0], 0.0),
            lower=lambda t, s: np.maximum(0.3 - s[:, 0], 0.0),
        )
        g = registry_generator("linear:-0.5,0")
        clamped = solve_mc(paths, prob, g)
        pen = solve_mc(paths, prob, g, penalty=("lower", 4096.0))
        assert abs(clamped.y0 - pen.y0) <= 2e-3

    def test_indicator_basis_end_to_end(self):
        paths = simulate_paths(1, 1.0, 8, 5000, 33)
        res = solve_mc(
            paths,
            McProblem(terminal=lambda s: np.tanh(s[:, 0])),
            registry_generator("zero"),
            RegressionBasis("indicator-bins", bins=8),
        )
        assert np.isfinite(res.y0)

    def test_stalled_implicit_step_raises(self):
        # dt * |a| = 12.5: the undamped iteration diverges and must not
        # hand back its last iterate
        from drbsde_lab.bsde import FixedPointError

        paths = simulate_paths(1, 1.0, 4, 200, 0)
        problem = McProblem(terminal=lambda s: s[:, 0])
        with pytest.raises(FixedPointError):
            solve_mc(paths, problem, registry_generator("linear:-50,0"),
                     scheme="implicit")

    def test_stopped_driver_rejected(self):
        from drbsde_lab.generator import stop_generator
        from drbsde_lab.lattice import StoppingRule

        lat = build_lattice(1.0, 4)
        g = stop_generator(registry_generator("constant:1"), StoppingRule.at_step(lat, 2))
        paths = simulate_paths(1, 1.0, 4, 200, 0)
        with pytest.raises(ValueError, match="stopped"):
            solve_mc(paths, McProblem(terminal=lambda s: s[:, 0]), g)

    def test_terminal_order_validated(self):
        paths = simulate_paths(1, 1.0, 4, 500, 2)
        prob = McProblem(
            terminal=lambda s: np.zeros(s.shape[0]),
            lower=lambda t, s: np.ones(s.shape[0]),
        )
        with pytest.raises(ValueError, match="below the lower obstacle"):
            solve_mc(paths, prob, registry_generator("zero"))

    @pytest.mark.parametrize("spoiled", ["terminal", "lower", "upper"])
    def test_non_finite_data_on_a_path_rejected(self, spoiled):
        # one path's state at step 3 spoils the data there and nowhere else
        paths = simulate_paths(1, 1.0, 4, 500, 2)
        marked = paths.states[17, 3 if spoiled != "terminal" else 4, 0]

        def spoil(base):
            return lambda *args: np.where(args[-1][:, 0] == marked, np.inf, base(args[-1]))

        rails = {"terminal": lambda s: np.tanh(s[:, 0]),
                 "lower": lambda s: np.tanh(s[:, 0]) - 0.3,
                 "upper": lambda s: np.tanh(s[:, 0]) + 0.3}
        prob = McProblem(
            terminal=rails["terminal"] if spoiled != "terminal" else spoil(rails["terminal"]),
            **{side: spoil(rails[side]) if side == spoiled else
               (lambda t, s, fn=rails[side]: fn(s)) for side in ("lower", "upper")},
        )
        what = "terminal data" if spoiled == "terminal" else f"{spoiled} obstacle"
        step = 4 if spoiled == "terminal" else 3
        with pytest.raises(ValueError, match=rf"{what} is not finite on path 17 at step {step}"):
            mc_terminal(paths, prob)


class TestSerialization:
    def test_bundle_csv(self, tmp_path):
        paths = simulate_paths(2, 1.0, 3, 100, 5)
        write_bundle_csv(tmp_path / "b.csv", paths)
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "path,k,coord,dB,state"
        assert len(lines) == 1 + 100 * 3 * 2

    def test_estimate_sidecar(self, tmp_path):
        paths = simulate_paths(1, 1.0, 4, 500, 6)
        res = solve_mc(paths, McProblem(terminal=lambda s: s[:, 0]),
                       registry_generator("zero"))
        write_mc_sidecar(tmp_path / "est.json", res)
        import json

        payload = json.loads((tmp_path / "est.json").read_text())
        assert payload["seed"] == 6
        assert payload["basis_degree"] == 3


class TestLatticeCrossCheck:
    def test_one_dimensional_game_agrees(self):
        lat = build_lattice(1.0, 16)
        f = lambda s: np.tanh(s)
        g = registry_generator("linear:-0.5,0.25")
        game = DynkinGame(
            xi=TerminalPayoff.from_function(lat, f),
            g=g,
            L=AdaptedProcess.from_function(lat, lambda t, s: f(s) - 0.25),
            U=AdaptedProcess.from_function(lat, lambda t, s: f(s) + 0.25),
        )
        ref = solve_drbsde(lat, game).root_value
        paths = simulate_paths(1, 1.0, 16, 20000, 99)
        prob = McProblem(
            terminal=lambda s: f(s[:, 0]),
            lower=lambda t, s: f(s[:, 0]) - 0.25,
            upper=lambda t, s: f(s[:, 0]) + 0.25,
        )
        res = solve_mc(paths, prob, g, RegressionBasis("polynomial", 3))
        scale = game.scale()
        assert abs(res.y0 - ref) <= 3 * res.stderr + 0.05 * scale
