import math

import numpy as np
import pytest

from drbsde_lab.bsde import (
    FixedPointError,
    _driver_update,
    g_evaluate,
    martingale_represent,
    monotone_guard,
    random_rule,
    rule_values,
    solve_bsde,
    verify_evaluation_axioms,
    write_solution_csv,
    write_solution_sidecar,
)
from drbsde_lab.generator import Generator, registry_generator, stop_generator
from drbsde_lab.lattice import (
    FULL_TREE,
    RECOMBINING,
    AdaptedProcess,
    StoppingRule,
    TerminalPayoff,
    build_lattice,
    conditional_expectation_chain,
)


def linear_affine(a, b, c, name=None):
    """Driver a*y + b*z + c with honest declared constants."""
    return Generator(
        lambda t, s, y, z: a * np.asarray(y) + b * np.asarray(z) + c,
        kappa=max(abs(a), abs(b), 1e-9),
        lam=a,
        alpha=0.5,
        h=abs(c),
        name=name or f"affine({a},{b},{c})",
    )


class TestSolveBsde:
    def test_martingale_case(self):
        lat = build_lattice(1.0, 8)
        xi = TerminalPayoff.from_function(lat, lambda s: s)
        sol = solve_bsde(lat, xi, registry_generator("zero"))
        assert sol.root_value == pytest.approx(0.0, abs=1e-15)
        for k in range(lat.N):
            np.testing.assert_allclose(sol.Z[k], 1.0, atol=1e-14)
        assert sol.kind == "plain"
        assert sol.dK.sup_norm() == 0.0 and sol.dJ.sup_norm() == 0.0

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_constant_driver_shifts_by_cT(self, scheme):
        lat = build_lattice(2.0, 16)
        rng = np.random.default_rng(0)
        xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(lat.N)))
        mean = float(lat.terminal_weights() @ xi.values)
        sol = solve_bsde(lat, xi, registry_generator("constant:0.4"), scheme)
        assert abs(sol.root_value - (mean + 0.4 * 2.0)) <= 1e-12

    def test_linear_decay_closed_form(self):
        # Y_k = (1 - dt) Y_{k+1} for g = -y, xi = 1, explicit scheme
        lat = build_lattice(1.0, 16)
        xi = TerminalPayoff.from_function(lat, lambda s: np.ones_like(s))
        sol = solve_bsde(lat, xi, registry_generator("linear:-1,0"), "explicit")
        assert sol.root_value == pytest.approx((1 - lat.dt) ** lat.N, abs=1e-14)

    def test_linear_decay_implicit_closed_form(self):
        lat = build_lattice(1.0, 16)
        xi = TerminalPayoff.from_function(lat, lambda s: np.ones_like(s))
        sol = solve_bsde(lat, xi, registry_generator("linear:-1,0"), "implicit")
        assert sol.root_value == pytest.approx((1 + lat.dt) ** -lat.N, abs=1e-12)

    def test_terminal_condition_kept(self):
        lat = build_lattice(1.0, 5)
        xi = TerminalPayoff.from_function(lat, lambda s: np.cos(s))
        sol = solve_bsde(lat, xi, registry_generator("linear:0.3,0.2"))
        np.testing.assert_array_equal(sol.Y[lat.N], xi.values)

    def test_scheme_gap_halves_as_steps_double(self):
        # explicit and implicit differ by O(dt^2) per step: on g = -y,
        # xi = 1 the two are (1-dt)^N and (1+dt)^-N, whose gap is O(1/N)
        g = registry_generator("linear:-1,0")
        gaps = []
        for n in (8, 16, 32, 64):
            lat = build_lattice(1.0, n)
            xi = TerminalPayoff.from_function(lat, lambda s: np.ones_like(s))
            ye = solve_bsde(lat, xi, g, "explicit").root_value
            yi = solve_bsde(lat, xi, g, "implicit").root_value
            gaps.append(abs(ye - yi))
        for a, b in zip(gaps, gaps[1:]):
            assert 0.4 <= b / a <= 0.6, gaps

    def test_guard_metadata(self):
        lat = build_lattice(1.0, 4)
        g = registry_generator("linear:0.5,0.5")
        value, ok = monotone_guard(lat, g)
        assert value == pytest.approx(math.sqrt(0.25) * 0.5 + 0.25 * 0.5)
        assert ok
        sol = solve_bsde(lat, TerminalPayoff.from_function(lat, lambda s: s), g)
        assert sol.meta["monotone_guard_ok"]
        assert sol.meta["warnings"] == []

    def test_guard_violation_is_warning_not_error(self):
        lat = build_lattice(1.0, 2)
        g = registry_generator("linear:0,3")  # sqrt(dt)*kappa > 2
        sol = solve_bsde(lat, TerminalPayoff.from_function(lat, lambda s: s), g)
        assert not sol.meta["monotone_guard_ok"]
        assert any("guard" in w for w in sol.meta["warnings"])

    @pytest.mark.parametrize("scheme", ["implicit", "explicit"])
    def test_a_fixed_point_that_may_stall_is_a_warning(self, scheme):
        lat = build_lattice(1.0, 4)
        g = registry_generator("linear:4,0")  # dt*lam+ = 1
        sol = solve_bsde(lat, TerminalPayoff.from_function(lat, np.zeros_like), g, scheme)
        assert sol.root_value == 0.0
        want = ["monotone-step guard violated: sqrt(dt)*kappa + dt*lam+ = 3 > 1"]
        if scheme == "implicit":  # the explicit step has no fixed point
            want.append("dt*lam+ = 1 >= 1: damped fixed point may stall")
        assert sol.meta["warnings"] == want

    def test_fixed_point_divergence_raises(self):
        lat = build_lattice(1.0, 4)
        g = registry_generator("linear:-300,0")  # dt*|g_y| = 75, undamped blowup
        xi = TerminalPayoff.from_function(lat, lambda s: np.ones_like(s))
        with pytest.raises(FixedPointError):
            solve_bsde(lat, xi, g, "implicit")

    def test_overflow_to_nan_is_not_convergence(self):
        # the iterates overflow and the residual turns inf, then NaN; a
        # non-finite residual is skipped only where the expectation itself is
        # NaN (post-frontier nodes), and the first inf one ends the iteration
        lat = build_lattice(1.0, 4)
        xi = TerminalPayoff.from_function(lat, lambda s: s)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FixedPointError,
                               match=r"diverged at iteration 90 .*\(residual inf\)"):
                solve_bsde(lat, xi, registry_generator("linear:-1e4,0"), "implicit")

    @pytest.mark.parametrize("a,calls", [(-1e4, 91), (-1e300, 2)])
    def test_nan_residual_stops_the_fixed_point_at_once(self, a, calls):
        # y <- E - 2500 y overflows at iteration 90 (residual inf), which
        # ends the iteration there, before the residual turns NaN; with
        # a = -1e300 the residual is inf at the first iteration.  The cap
        # would have called the driver 101 times at step 3.
        lat = build_lattice(1.0, 4)
        xi = TerminalPayoff.from_function(lat, lambda s: s)
        base = registry_generator(f"linear:{a},0")
        times = []

        def fn(t, s, y, z):
            times.append(t)
            return base.fn(t, s, y, z)

        g = Generator(fn, kappa=base.kappa, lam=base.lam, name="counted")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FixedPointError, match="residual inf") as err:
                solve_bsde(lat, xi, g, "implicit")
        assert err.value.step == 3
        assert err.value.residual == math.inf
        assert times == [lat.time(3)] * calls

    @pytest.mark.parametrize("slopes,node", [((0, 0, -300, -400), 3),
                                             ((0, -1e300, 0, -400), 1)],
                             ids=["largest-residual", "first-nan"])
    def test_failure_names_its_node(self, slopes, node):
        # the node is the last-axis index of the first NaN residual, or else
        # of the largest; a batch axis in front does not count
        w = np.array(slopes, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FixedPointError) as err:
                _driver_update(lambda y: w * y, np.ones((2, 4)), 0.25, 0.0, "implicit", 3)
        assert err.value.node == node
        assert f"at node {node} " in str(err.value)

    def test_comparison_under_guard(self):
        # ordered data and ordered drivers give ordered values, node-wise
        lat = build_lattice(1.0, 12)
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(-0.8, 0.8)
            c1 = rng.uniform(-0.5, 0.5)
            c2 = c1 + rng.uniform(0.0, 0.5)
            g1, g2 = linear_affine(a, b, c1), linear_affine(a, b, c2)
            assert monotone_guard(lat, g1)[1]
            base = rng.normal(size=lat.n_nodes(lat.N))
            xi1 = TerminalPayoff(lat, base)
            xi2 = TerminalPayoff(lat, base + rng.exponential(0.3, size=base.shape))
            s1 = solve_bsde(lat, xi1, g1, "implicit")
            s2 = solve_bsde(lat, xi2, g2, "implicit")
            for k in range(lat.N + 1):
                assert np.all(s1.Y[k] <= s2.Y[k] + 1e-12)


class TestGEvaluate:
    def test_degenerates_to_conditional_expectation(self):
        lat = build_lattice(1.0, 32)
        rng = np.random.default_rng(1)
        xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(lat.N)))
        table = g_evaluate(
            lat,
            StoppingRule.at_step(lat, 0),
            StoppingRule.horizon(lat),
            xi,
            registry_generator("zero"),
        )
        chain = conditional_expectation_chain(lat, xi)
        for k in range(lat.N + 1):
            np.testing.assert_allclose(table[k], chain[k], atol=1e-12, rtol=0)

    def test_start_equals_stop_returns_payoff(self):
        tree = build_lattice(1.0, 4, FULL_TREE)
        rule = StoppingRule.from_region(tree, lambda t, s: s >= 0.4)
        pay = AdaptedProcess.from_function(tree, lambda t, s: np.sin(s) + t)
        table = g_evaluate(tree, rule, rule, pay, registry_generator("linear:0.7,0.3"))
        for k in range(5):
            sel = rule.flags[k]
            np.testing.assert_array_equal(table[k][sel], pay[k][sel])

    def test_constant_driver_between_root_and_horizon(self):
        lat = build_lattice(1.5, 12)
        rng = np.random.default_rng(5)
        xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(lat.N)))
        mean = float(lat.terminal_weights() @ xi.values)
        table = g_evaluate(
            lat,
            StoppingRule.at_step(lat, 0),
            StoppingRule.horizon(lat),
            xi,
            registry_generator("constant:-0.7"),
        )
        assert abs(table[0][0] - (mean - 0.7 * 1.5)) <= 1e-12

    def test_time_consistency_through_middle_rule(self):
        tree = build_lattice(1.0, 5, FULL_TREE)
        rng = np.random.default_rng(8)
        g = registry_generator("linear:-0.4,0.3")
        for _ in range(5):
            tau = random_rule(tree, rng)
            gamma = tau.union(random_rule(tree, rng))
            nu = gamma.union(random_rule(tree, rng))
            pay = AdaptedProcess(
                tree, tuple(rng.normal(size=tree.n_nodes(k)) for k in range(6))
            )
            direct = g_evaluate(tree, nu, tau, pay, g)
            composed = g_evaluate(tree, nu, gamma, direct, g)
            for a, b in zip(rule_values(composed, nu), rule_values(direct, nu)):
                sel = ~np.isnan(a)
                np.testing.assert_allclose(a[sel], b[sel], atol=1e-12, rtol=0)

    def test_region_rule_agrees_across_backends(self):
        # first entry into a state region is node-measurable on both
        # backends; the evaluation tables must match through the up-count
        n = 6
        rec = build_lattice(1.0, n)
        tree = build_lattice(1.0, n, FULL_TREE)
        g = registry_generator("linear:-0.4,0.2")

        def run(lat):
            rule = StoppingRule.from_region(lat, lambda t, s: s >= 0.7)
            pay = AdaptedProcess.from_function(lat, lambda t, s: np.cos(s) + 0.2 * t)
            return g_evaluate(lat, StoppingRule.at_step(lat, 0), rule, pay, g)

        table_r = run(rec)
        table_t = run(tree)
        for k in range(n + 1):
            ups = tree.up_counts(k)
            np.testing.assert_allclose(
                table_t[k], table_r[k][ups], atol=1e-12, rtol=0
            )

    def test_order_violation_rejected(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        early = StoppingRule.at_step(tree, 1)
        late = StoppingRule.at_step(tree, 2)
        pay = AdaptedProcess.constant(tree, 1.0)
        with pytest.raises(ValueError, match="no later"):
            g_evaluate(tree, late, early, pay, registry_generator("zero"))

    def test_order_violation_on_several_rows_rejected(self):
        # a rule pair is checked once however many rows carry it; a
        # violating pair is refused on any row, even after valid pairs that
        # share its start rule or its collection rule
        tree = build_lattice(1.0, 3, FULL_TREE)
        early = StoppingRule.at_step(tree, 1)
        late = StoppingRule.at_step(tree, 2)
        pays = [AdaptedProcess.constant(tree, c) for c in (1.0, 2.0, 3.0)]
        g = registry_generator("zero")
        for nus, taus in ((late, early), ([early, late, late], [late, late, early]),
                          ([early, early, late], [late, early, early])):
            with pytest.raises(ValueError, match="no later"):
                g_evaluate(tree, nus, taus, pays, g)

    def test_an_undefined_payoff_names_its_node(self):
        lat = build_lattice(1.0, 3)
        vals = [np.zeros(lat.n_nodes(k)) for k in range(lat.N + 1)]
        vals[2][1] = math.nan
        with pytest.raises(ValueError, match=r"payoff undefined at stop node \(k=2, id=1\)$"):
            g_evaluate(lat, StoppingRule.at_step(lat, 0), StoppingRule.at_step(lat, 2),
                       AdaptedProcess(lat, tuple(vals)), registry_generator("zero"))

    def test_payoff_must_cover_stop_nodes(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        rule = StoppingRule.at_step(tree, 1)
        xi = TerminalPayoff.from_function(tree, lambda s: s)
        # terminal-only payoff is undefined at the interior stop nodes
        with pytest.raises(ValueError, match="undefined"):
            g_evaluate(
                tree, StoppingRule.at_step(tree, 0), rule,
                AdaptedProcess.from_terminal(xi), registry_generator("zero"),
            )

    def test_matches_masked_solver_before_the_stop(self):
        # a solve with the switched-off driver and constant continuation
        # reproduces the frontier recursion strictly before the stop
        tree = build_lattice(1.0, 4, FULL_TREE)
        g = registry_generator("linear:-0.5,0.25")
        rule = StoppingRule.from_region(tree, lambda t, s: s >= 0.9)
        pay = AdaptedProcess.from_function(tree, lambda t, s: np.cos(s))
        table = g_evaluate(tree, StoppingRule.at_step(tree, 0), rule, pay, g)
        # manual: extend payoff constantly past the stop, step with the
        # integral-weight mask (off at the stop node and after)
        reach = rule.not_yet_stopped()
        ext = [None] * 5
        ext[4] = np.where(rule.flags[4] & reach[4], pay[4], np.nan)
        carry = ext[4]
        vals = ext[4].copy()
        vals[np.isnan(vals)] = 0.0
        v = None
        stopped_value = [np.where(rule.flags[k] & reach[k], pay[k], np.nan) for k in range(5)]
        # fill constant continuation forward
        filled = [stopped_value[0]]
        for k in range(1, 5):
            prev = filled[k - 1]
            cur = stopped_value[k].copy()
            inherit = np.repeat(prev, 2)
            take = np.isnan(cur) & ~np.isnan(inherit)
            cur[take] = inherit[take]
            filled.append(cur)
        v = filled[4]
        from drbsde_lab.bsde import step_candidate

        for k in range(3, -1, -1):
            cand, _ = step_candidate(tree, g, k, v, "explicit")
            active = reach[k] & ~rule.flags[k]
            expectation = 0.5 * (v[0::2] + v[1::2])
            v = np.where(active, cand, np.where(~np.isnan(filled[k]), filled[k], expectation))
        assert v[0] == pytest.approx(table[0][0], abs=1e-13)


class TestMartingaleRepresent:
    def test_constant(self):
        lat = build_lattice(1.0, 6)
        xi = TerminalPayoff.from_function(lat, lambda s: np.full_like(s, 3.3))
        mean, z = martingale_represent(lat, xi)
        assert mean == pytest.approx(3.3)
        assert z.sup_norm() == 0.0

    def test_brownian(self):
        lat = build_lattice(1.0, 6)
        xi = TerminalPayoff.from_function(lat, lambda s: s)
        mean, z = martingale_represent(lat, xi)
        assert mean == pytest.approx(0.0, abs=1e-15)
        for k in range(lat.N):
            np.testing.assert_allclose(z[k], 1.0, atol=1e-14)

    def test_brownian_squared(self):
        lat = build_lattice(1.0, 8)
        xi = TerminalPayoff.from_function(lat, lambda s: s**2)
        mean, z = martingale_represent(lat, xi)
        assert mean == pytest.approx(1.0, abs=1e-14)  # E[B_T^2] = T
        for k in range(lat.N):
            np.testing.assert_allclose(z[k], 2 * lat.states(k), atol=1e-13)

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_reconstruction_identity(self, mode):
        lat = build_lattice(1.0, 9, mode)
        rng = np.random.default_rng(13)
        xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(lat.N)))
        mean, z = martingale_represent(lat, xi)
        chain = conditional_expectation_chain(lat, xi)
        for k in range(lat.N):
            down, up = lat.split_children(chain[k + 1])
            np.testing.assert_allclose(
                up, chain[k] + z[k] * lat.sqrt_dt, atol=1e-12, rtol=0
            )
            np.testing.assert_allclose(
                down, chain[k] - z[k] * lat.sqrt_dt, atol=1e-12, rtol=0
            )


class TestAxioms:
    def test_zero_driver_passes_all_five(self):
        tree = build_lattice(1.0, 4, FULL_TREE)
        report = verify_evaluation_axioms(
            tree, registry_generator("zero"), cases=15, seed=0, tol=1e-12
        )
        assert report.all_pass
        assert all(c.status == "pass" for c in report.checks.values()), report

    def test_z_magnitude_driver_is_translation_invariant(self):
        tree = build_lattice(1.0, 4, FULL_TREE)
        g = Generator(lambda t, s, y, z: 0.5 * np.abs(z), kappa=0.5, lam=0.0,
                      name="half-abs-z")
        report = verify_evaluation_axioms(tree, g, cases=15, seed=1)
        assert report.checks["translation-invariance"].status == "pass"
        assert report.checks["constant-preserving"].status == "pass"

    def test_y_dependent_driver_skips_translation(self):
        tree = build_lattice(1.0, 4, FULL_TREE)
        g = Generator(lambda t, s, y, z: np.asarray(y) * 1.0, kappa=1.0, lam=1.0,
                      name="bare-y")
        report = verify_evaluation_axioms(tree, g, cases=10, seed=2)
        assert report.checks["translation-invariance"].status == "skipped"
        assert report.checks["monotonicity"].status == "pass"
        assert report.all_pass

    def test_requires_full_tree(self):
        lat = build_lattice(1.0, 4, RECOMBINING)
        with pytest.raises(ValueError):
            verify_evaluation_axioms(lat, registry_generator("zero"))


class TestStoppedDriverSolve:
    def test_stopped_driver_through_solver(self):
        # driver switched off after the first step: only one step of drift
        tree = build_lattice(1.0, 4, FULL_TREE)
        g = stop_generator(registry_generator("constant:1"), StoppingRule.at_step(tree, 1))
        xi = TerminalPayoff.from_function(tree, lambda s: np.zeros_like(s))
        sol = solve_bsde(tree, xi, g)
        # constant 1 active at steps 0 and 1 (mask is time <= stop time)
        assert sol.root_value == pytest.approx(2 * tree.dt, abs=1e-14)

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_every_route_gives_a_stopped_driver_one_meaning(self, mode):
        # constant 1 active at steps 0, 1 and 2 on N = 4: every route reads
        # 3 * dt at the root, the rails at +-100 never bind
        from drbsde_lab.drbsde import DynkinGame, pasting_construct, solve_drbsde
        from drbsde_lab.dynkin import strategy_value
        from drbsde_lab.rbsde import solve_rbsde

        lat = build_lattice(1.0, 4, mode)
        g = stop_generator(registry_generator("constant:1"), StoppingRule.at_step(lat, 2))
        xi = TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s))
        low = AdaptedProcess.constant(lat, -100.0)
        high = AdaptedProcess.constant(lat, 100.0)
        game = DynkinGame(xi=xi, g=g, L=low, U=high)
        root, horizon = StoppingRule.at_step(lat, 0), StoppingRule.horizon(lat)
        values = {
            "bsde": solve_bsde(lat, xi, g).root_value,
            "rbsde-lower": solve_rbsde(lat, xi, g, low, "lower").root_value,
            "rbsde-upper": solve_rbsde(lat, xi, g, high, "upper").root_value,
            "drbsde-explicit": solve_drbsde(lat, game, "explicit").root_value,
            "drbsde-implicit": solve_drbsde(lat, game, "implicit").root_value,
            "g-evaluate": g_evaluate(lat, root, horizon, xi, g)[0][0],
        }
        if mode == FULL_TREE:
            values["pasting"] = pasting_construct(lat, game)[0].root_value
            values["strategy-value"] = strategy_value(lat, game, horizon, horizon)
        assert values == dict.fromkeys(values, 0.75)

    def test_stop_check_scans_the_rule_once_per_solve(self, monkeypatch):
        # every backward step asks whether the rule is deterministic; the
        # rule answers from its cache after the first scan of its flags
        lat = build_lattice(1.0, 60)
        xi = TerminalPayoff.from_function(lat, np.tanh)
        cached = StoppingRule.__dict__["_deterministic"]
        scan = cached.func
        scans = []

        def counting_scan(rule):
            scans.append(1)
            return scan(rule)

        def solve():
            g = stop_generator(registry_generator("linear:-0.5,0.3"),
                               StoppingRule.at_step(lat, 30))
            return solve_bsde(lat, xi, g, "implicit")

        monkeypatch.setattr(cached, "func", counting_scan)
        once = solve()
        assert len(scans) == 1
        # the scan at every step, as it ran before it was cached
        monkeypatch.setattr(StoppingRule, "is_deterministic", counting_scan)
        every_step = solve()
        assert len(scans) == 1 + lat.N
        for part in ("Y", "Z", "dK", "dJ"):
            for a, b in zip(getattr(once, part).values, getattr(every_step, part).values):
                assert a.tobytes() == b.tobytes()


class TestSerialization:
    def test_solution_csv_and_sidecar(self, tmp_path):
        lat = build_lattice(1.0, 3)
        xi = TerminalPayoff.from_function(lat, lambda s: s)
        sol = solve_bsde(lat, xi, registry_generator("constant:0.1"))
        write_solution_csv(tmp_path / "s.csv", sol)
        write_solution_sidecar(tmp_path / "s.meta.json", sol)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "k,node-id,state,Y,Z,K,J"
        assert len(lines) == 1 + lat.total_nodes
        # terminal rows have empty Z
        assert lines[-1].split(",")[4] == ""
        meta = (tmp_path / "s.meta.json").read_text()
        assert '"scheme": "explicit"' in meta


def tanh_sin():
    """A Python driver with transcendental functions, evaluated by numpy."""
    return Generator(lambda t, s, y, z: 0.5 * np.tanh(y) + 0.3 * np.sin(z),
                     kappa=0.5, lam=0.5, name="tanh-sin")


def batch_driver(name, lattice):
    if name == "tanh-sin":
        return tanh_sin()
    g = registry_generator("linear:-0.5,0.3")
    if name == "stopped":
        return stop_generator(g, StoppingRule.at_step(lattice, lattice.N // 2))
    return g


def same_bits(a, b):
    return all(np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))
               for x, y in zip(a.values, b.values))


class TestBatchedRows:
    """Rows swept together give each row's own bits: every element of the
    implicit fixed point converges on its own."""

    @pytest.mark.parametrize("driver", ["linear", "stopped", "tanh-sin"])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_g_evaluate_rows_equal_separate_runs(self, scheme, driver):
        tree = build_lattice(1.0, 5, FULL_TREE)
        g = batch_driver(driver, tree)
        rng = np.random.default_rng(3)
        nus, taus, pays = [], [], []
        for _ in range(9):
            tau = random_rule(tree, rng)
            nus.append(tau.union(random_rule(tree, rng)))
            taus.append(tau)
            vals = [3.0 * rng.normal(size=tree.n_nodes(k)) for k in range(tree.N + 1)]
            # payoffs undefined past the stop frontier: NaN expectations there
            for v, reach in zip(vals, tau.not_yet_stopped()):
                v[~reach] = np.nan
            pays.append(AdaptedProcess(tree, tuple(vals)))
        batched = g_evaluate(tree, nus, taus, pays, g, scheme)
        assert len(batched) == 9
        for nu, tau, pay, table in zip(nus, taus, pays, batched):
            assert same_bits(table, g_evaluate(tree, nu, tau, pay, g, scheme))
        # a shared start rule and payoff serve every row
        root = StoppingRule.at_step(tree, 0)
        pay = AdaptedProcess(tree, tuple(rng.normal(size=tree.n_nodes(k))
                                         for k in range(tree.N + 1)))
        for tau, table in zip(taus, g_evaluate(tree, root, taus, pay, g, scheme)):
            assert same_bits(table, g_evaluate(tree, root, tau, pay, g, scheme))

    def test_empty_batch(self):
        tree = build_lattice(1.0, 2, FULL_TREE)
        pay = AdaptedProcess.constant(tree, 1.0)
        assert g_evaluate(tree, StoppingRule.at_step(tree, 0), [], pay,
                          registry_generator("zero")) == []

    def test_rows_keep_their_own_iteration_counts(self):
        # a row of zeros converges at once, a row of large values does not
        e = np.array([[0.0, 0.0, 0.0], [5.0, -4.0, 3.0]])
        stats = {}
        _driver_update(lambda y: -0.5 * y, e, 0.1, 0.0, "implicit", 0, stats)
        one, two = ({} for _ in range(2))
        _driver_update(lambda y: -0.5 * y, e[0], 0.1, 0.0, "implicit", 0, one)
        _driver_update(lambda y: -0.5 * y, e[1], 0.1, 0.0, "implicit", 0, two)
        assert stats["max_iterations"].tolist() == [one["max_iterations"],
                                                     two["max_iterations"]]
        assert one["max_iterations"] == 1 < two["max_iterations"]


def row_key(nu, tau, payoff, table):
    return (nu.key(), tau.key(), b"".join(v.tobytes() for v in payoff.values),
            b"".join(v.tobytes() for v in table.values))


def recording_g_evaluate(rows):
    """``g_evaluate`` that records every row it evaluates, batched or not."""
    def spy(lattice, nu, tau, payoff, g, scheme="explicit"):
        out = g_evaluate(lattice, nu, tau, payoff, g, scheme)
        given = (nu, tau, payoff, out)
        n = max(len(a) if isinstance(a, list) else 1 for a in given)
        nus, taus, pays, tables = ([a] * n if not isinstance(a, list) else a for a in given)
        rows.extend(row_key(*row) for row in zip(nus, taus, pays, tables))
        return out

    return spy


def reference_axiom_rows(lattice, g, cases, seed, scheme):
    """The draws and evaluations of the case loop as it ran before the
    sweeps were batched: each case drawn just before its ``g_evaluate``
    calls, one call per table."""
    from drbsde_lab.bsde import _probe_driver
    from drbsde_lab.bsde import _subtree_indicator as events

    rows, ev = [], recording_g_evaluate([])
    rng = np.random.default_rng(seed)
    y_free, const_ok, _ = _probe_driver(g, lattice)
    n = lattice.total_nodes
    for _ in range(cases):
        tau = random_rule(lattice, rng)
        gamma = tau.union(random_rule(lattice, rng))
        nu = gamma.union(random_rule(lattice, rng))
        xi = [rng.normal(size=lattice.n_nodes(k)) for k in range(lattice.N + 1)]
        eta = [v + rng.exponential(0.5, size=v.shape) for v in xi]
        pays = [xi, eta]
        if const_ok:
            pays.append(events(lattice, nu, rng.normal(size=n)))
        ind = events(lattice, nu, (rng.random(n) < 0.5).astype(float))
        pays.append([iv * xv for iv, xv in zip(ind, xi)])
        if y_free:
            pays.append([sv + xv for sv, xv in zip(events(lattice, nu, rng.normal(size=n)), xi)])
        tables = [g_evaluate(lattice, nu, tau, AdaptedProcess(lattice, tuple(p)), g, scheme)
                  for p in pays]
        rows += [row_key(nu, tau, AdaptedProcess(lattice, tuple(p)), t)
                 for p, t in zip(pays, tables)]
        rows.append(row_key(nu, gamma, tables[0], g_evaluate(lattice, nu, gamma, tables[0],
                                                               g, scheme)))
    return rows


@pytest.mark.parametrize("driver", ["sin-z", "tanh-sin"])
def test_axiom_sweeps_draw_and_evaluate_like_the_case_loop(monkeypatch, driver):
    # 30 cases run as three blocks of independent tables and three of
    # compositions; the rows are the one-by-one loop's, bit for bit
    from drbsde_lab import bsde

    tree = build_lattice(1.0, 4, FULL_TREE)
    g = tanh_sin() if driver == "tanh-sin" else Generator(
        lambda t, s, y, z: 0.3 * np.sin(z) + 0.1 * np.abs(z), kappa=0.5, lam=0.0)
    got = []
    monkeypatch.setattr(bsde, "g_evaluate", recording_g_evaluate(got))
    report = verify_evaluation_axioms(tree, g, cases=30, seed=9, scheme="implicit")
    want = reference_axiom_rows(tree, g, 30, 9, "implicit")
    assert len(got) == len(want) == 30 * (4 if driver == "tanh-sin" else 6)
    assert sorted(got) == sorted(want)
    assert {c.cases for c in report.checks.values() if c.status != "skipped"} == {30}
