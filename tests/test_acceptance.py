"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and measured runtimes.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time

import numpy as np

from drbsde_lab.bsde import (
    monotone_guard,
    g_evaluate,
    solve_bsde,
    step_candidate,
    verify_evaluation_axioms,
)
from drbsde_lab.drbsde import DynkinGame, pasting_construct, solve_drbsde
from drbsde_lab.dynkin import game_value_oracle, verify_saddle
from drbsde_lab.generator import Generator, registry_generator
from drbsde_lab.lattice import (
    FULL_TREE,
    RECOMBINING,
    AdaptedProcess,
    StoppingRule,
    TerminalPayoff,
    build_lattice,
    conditional_expectation_chain,
)
from drbsde_lab.mc import McProblem, RegressionBasis, simulate_paths, solve_mc
from drbsde_lab.rbsde import penalization_run, solve_rbsde


class Stopwatch:
    def __init__(self, criterion, limit_s):
        self.criterion = criterion
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{verdict}] criterion {self.criterion} ({elapsed:.2f} s, limit {self.limit_s:g} s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.criterion} exceeded its runtime budget: "
                f"{elapsed:.2f} s >= {self.limit_s} s"
            )
        return False


def affine(a, b, c):
    return Generator(
        lambda t, s, y, z: a * np.asarray(y) + b * np.asarray(z) + c,
        kappa=max(abs(a), abs(b), 1e-9), lam=a, alpha=0.5, h=abs(c),
        name=f"affine({a:.3g},{b:.3g},{c:.3g})",
    )


def damped_sine():
    return Generator(
        lambda t, s, y, z: -np.asarray(y) + 0.5 * np.sin(z),
        kappa=0.5, lam=-1.0, alpha=0.5, h=1.0, name="damped-sin",
    )


def clipped_tanh_game(lattice, seed, driver):
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.3, 0.3)
    a = 0.2 + rng.uniform(0.0, 0.25)
    b = 0.2 + rng.uniform(0.0, 0.25)
    f = lambda s: np.tanh(s + shift)
    return DynkinGame(
        xi=TerminalPayoff.from_function(lattice, f),
        g=driver,
        L=AdaptedProcess.from_function(lattice, lambda t, s: f(s) - a - 0.1 * t),
        U=AdaptedProcess.from_function(lattice, lambda t, s: f(s) + b - 0.05 * (1 - t)),
    )


def oracle_games():
    """Ten seeded games on full trees with N <= 4, nonlinear driver included."""
    drivers = [
        registry_generator("zero"),
        registry_generator("constant:0.2"),
        registry_generator("linear:-0.5,0.3"),
        damped_sine(),
    ]
    games = []
    for seed in range(10):
        n = 2 + seed % 3
        tree = build_lattice(1.0, n, FULL_TREE)
        games.append((tree, clipped_tanh_game(tree, seed, drivers[seed % 4])))
    return games


def test_criterion_01_linear_expectation_degeneracy():
    with Stopwatch(1, 1.0):
        cases = [(RECOMBINING, 1), (RECOMBINING, 16), (RECOMBINING, 64),
                 (FULL_TREE, 4), (FULL_TREE, 10)]
        g0 = registry_generator("zero")
        for mode, n in cases:
            lat = build_lattice(1.0, n, mode)
            rng = np.random.default_rng(n)
            xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(n)))
            table = g_evaluate(
                lat, StoppingRule.at_step(lat, 0), StoppingRule.horizon(lat), xi, g0
            )
            chain = conditional_expectation_chain(lat, xi)
            err = max(
                float(np.max(np.abs(table[k] - chain[k]))) for k in range(n + 1)
            )
            assert err <= 1e-12, (mode, n, err)


def test_criterion_02_constant_generator_identity():
    with Stopwatch(2, 1.0):
        for n, c, horizon in [(8, 0.4, 1.0), (64, -1.3, 2.0), (32, 0.05, 0.5)]:
            lat = build_lattice(horizon, n)
            rng = np.random.default_rng(n)
            xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(n)))
            mean = float(lat.terminal_weights() @ xi.values)
            g = registry_generator(f"constant:{c}")
            table = g_evaluate(
                lat, StoppingRule.at_step(lat, 0), StoppingRule.horizon(lat), xi, g
            )
            assert abs(table[0][0] - (mean + c * horizon)) <= 1e-12
            sol = solve_bsde(lat, xi, g)
            assert abs(sol.root_value - (mean + c * horizon)) <= 1e-12


def test_criterion_03_comparison_suite():
    with Stopwatch(3, 10.0):
        lat = build_lattice(1.0, 16)
        rng = np.random.default_rng(2024)
        for _ in range(50):
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(-0.8, 0.8)
            c1 = rng.uniform(-0.5, 0.5)
            g1 = affine(a, b, c1)
            g2 = affine(a, b, c1 + rng.uniform(0.0, 0.6))
            assert monotone_guard(lat, g1)[1] and monotone_guard(lat, g2)[1]
            base = rng.normal(size=lat.n_nodes(lat.N))
            s1 = solve_bsde(lat, TerminalPayoff(lat, base), g1, "implicit")
            s2 = solve_bsde(
                lat,
                TerminalPayoff(lat, base + rng.exponential(0.3, size=base.shape)),
                g2,
                "implicit",
            )
            for k in range(lat.N + 1):
                assert np.all(s1.Y[k] <= s2.Y[k] + 1e-12)


def test_criterion_04_penalization_convergence_lower():
    with Stopwatch(4, 10.0):
        lat = build_lattice(1.0, 32)  # dt = 1/32
        schedule = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]
        cap = schedule[-1]
        for gname, strike in [("linear:-0.5,0", 0.3), ("linear:-0.8,0.2", 0.5)]:
            g = registry_generator(gname)
            xi = TerminalPayoff.from_function(lat, lambda s: np.maximum(strike - s, 0.0))
            L = AdaptedProcess.from_function(lat, lambda t, s: np.maximum(strike - s, 0.0))
            levels, report = penalization_run(lat, xi, g, L, "lower", schedule)
            assert report.total_violations == 0
            # closed-form envelope accumulated from the reflected solve's own
            # unpenalized candidates (the steps here are non-expansive)
            v = xi.values.copy()
            envelope = 0.0
            for k in range(lat.N - 1, -1, -1):
                cand, _ = step_candidate(lat, g, k, v, "explicit")
                envelope += float(np.max(np.maximum(L[k] - cand, 0.0))) / (1.0 + lat.dt * cap)
                v = np.maximum(L[k], cand)
            ref = solve_rbsde(lat, xi, g, L)
            scale = 1.0 + ref.Y.sup_norm()
            assert report.final_gap <= envelope + 1e-15
            assert report.final_gap <= 1e-2 * scale
            # levels approach from below
            for lv in levels:
                for k in range(lat.N + 1):
                    assert np.all(lv.Y[k] <= ref.Y[k] + 1e-13)


def test_criterion_05_flat_off_conditions():
    with Stopwatch(5, 5.0):
        lat = build_lattice(1.0, 16)
        games = [clipped_tanh_game(lat, seed, registry_generator("linear:-0.5,0.3"))
                 for seed in range(5)]
        for game in games:
            sol = solve_drbsde(lat, game)
            assert sol.flat_off_lower() == 0.0
            assert sol.flat_off_upper() == 0.0
            low = solve_rbsde(lat, game.xi, game.g, game.L, "lower")
            assert low.flat_off_lower() == 0.0
            up = solve_rbsde(lat, game.xi, game.g, game.U, "upper")
            assert up.flat_off_upper() == 0.0


def test_criterion_06_route_agreement():
    with Stopwatch(6, 30.0):
        for seed in range(20):
            n = 4 + seed % 5
            tree = build_lattice(1.0, n, FULL_TREE)
            game = clipped_tanh_game(tree, 100 + seed, registry_generator("linear:-0.5,0.3"))
            direct = solve_drbsde(tree, game)
            pasted, ledger = pasting_construct(tree, game)
            gap = max(
                float(np.max(np.abs(direct.Y[k] - pasted.Y[k])))
                for k in range(n + 1)
            )
            assert gap <= 1e-10, (seed, gap)
            assert int(ledger.segments_by_terminal.max()) <= n + 1


_SHARED_REPORTS: list = []


def _oracle_reports():
    # criterion 8 reuses criterion 7's table rather than rebuilding it
    if not _SHARED_REPORTS:
        for tree, game in oracle_games():
            oracle = game_value_oracle(tree, game)
            saddle = verify_saddle(tree, game)
            _SHARED_REPORTS.append((tree, game, oracle, saddle))
    return _SHARED_REPORTS


def test_criterion_07_dynkin_oracle():
    with Stopwatch(7, 120.0):
        reports = _oracle_reports()
        assert any(g.g.name == "damped-sin" for _, g, _, _ in reports)
        for tree, game, oracle, _ in reports:
            assert oracle.sup_inf <= oracle.inf_sup + 1e-14
            assert abs(oracle.sup_inf - oracle.y0) <= 1e-10
            assert abs(oracle.inf_sup - oracle.y0) <= 1e-10


def test_criterion_08_saddle_point():
    with Stopwatch(8, 120.0):
        for tree, game, _, saddle in _oracle_reports():
            assert saddle.max_saddle_violation <= 1e-10
            assert saddle.saddle_equality_gap <= 1e-10
            assert saddle.sandwich_slack <= 1e-10


def test_criterion_09_upper_lower_duality():
    with Stopwatch(9, 5.0):
        lat = build_lattice(1.0, 12)
        rng = np.random.default_rng(55)
        for _ in range(20):
            a = rng.uniform(-0.7, 0.7)
            b = rng.uniform(-0.7, 0.7)
            g = affine(a, b, rng.uniform(-0.3, 0.3))
            U = AdaptedProcess.from_function(
                lat,
                lambda t, s, u0=rng.uniform(0.2, 0.8): u0 + 0.2 * np.abs(s) + 0.1 * t,
            )
            xi = TerminalPayoff(
                lat, np.minimum(rng.normal(size=lat.n_nodes(lat.N)), U[lat.N])
            )
            sol = solve_rbsde(lat, xi, g, U, "upper")
            # independent oracle: clamp the plain candidate from above
            v = xi.values.copy()
            for k in range(lat.N - 1, -1, -1):
                cand, _ = step_candidate(lat, g, k, v, "explicit")
                v = np.minimum(U[k], cand)
                assert np.max(np.abs(sol.Y[k] - v)) <= 1e-12
            assert sol.flat_off_upper() == 0.0


def test_criterion_10_evaluation_axioms():
    with Stopwatch(10, 10.0):
        tree = build_lattice(1.0, 4, FULL_TREE)
        half_abs_z = Generator(
            lambda t, s, y, z: 0.5 * np.abs(z), kappa=0.5, lam=0.0, name="half-abs-z"
        )
        report_a = verify_evaluation_axioms(
            tree, registry_generator("zero"), cases=100, seed=0, tol=1e-10
        )
        report_b = verify_evaluation_axioms(tree, half_abs_z, cases=100, seed=1, tol=1e-10)
        for report in (report_a, report_b):
            assert report.all_pass, report
            for check in report.checks.values():
                assert check.status == "pass"  # all five applicable here
        # y-dependent driver: translation invariance is precondition-gated
        report_c = verify_evaluation_axioms(
            tree, registry_generator("linear:-0.5,0.3"), cases=50, seed=2, tol=1e-10
        )
        assert report_c.all_pass
        assert report_c.checks["translation-invariance"].status == "skipped"


def test_criterion_11_scheme_consistency():
    with Stopwatch(11, 5.0):
        g = registry_generator("linear:-1,0")
        target = np.exp(-1.0)
        errors = []
        for n in (16, 32, 64, 128):
            lat = build_lattice(1.0, n)
            xi = TerminalPayoff.from_function(lat, lambda s: np.ones_like(s))
            errors.append(abs(solve_bsde(lat, xi, g, "explicit").root_value - target))
        for a, b in zip(errors, errors[1:]):
            ratio = b / a
            assert 0.4 <= ratio <= 0.6, errors


def test_criterion_12_mc_cross_check():
    with Stopwatch(12, 60.0):
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
        paths = simulate_paths(1.0, 16, 100_000, 2026)
        problem = McProblem(
            terminal=f,
            lower=lambda t, s: f(s) - 0.25,
            upper=lambda t, s: f(s) + 0.25,
        )
        basis = RegressionBasis(3)
        result = solve_mc(paths, problem, g, basis)
        again = solve_mc(paths, problem, g, basis)
        assert result.y0 == again.y0 and result.stderr == again.stderr
        small_a = simulate_paths(1.0, 16, 2000, 2026)
        small_b = simulate_paths(1.0, 16, 2000, 2026)
        assert np.array_equal(small_a.increments, small_b.increments)
        scale = game.scale()
        gap = abs(result.y0 - ref)
        assert gap <= 3.0 * result.stderr + 0.05 * scale, (gap, result.stderr)
        assert paths.gate_ok
