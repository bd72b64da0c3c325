import numpy as np
import pytest

from drbsde_lab.bsde import penalty_step, solve_bsde, step_candidate
from drbsde_lab.generator import Generator, registry_generator
from drbsde_lab.lattice import (
    FULL_TREE,
    AdaptedProcess,
    TerminalPayoff,
    build_lattice,
)
from drbsde_lab.rbsde import (
    default_eps_hit,
    first_hitting,
    penalization_run,
    solve_rbsde,
    verify_snell,
    write_penalization_csv,
)


def sup_gap(a, b):
    lat = a.lattice
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in range(lat.N + 1))


def upper_clamp_oracle(lattice, xi, g, obstacle, scheme="explicit"):
    """Independent route for the upper solve: clamp the candidate from above."""
    v = np.asarray(xi.values, dtype=float)
    out = [v]
    for k in range(lattice.N - 1, -1, -1):
        cand, _ = step_candidate(lattice, g, k, out[-1], scheme)
        out.append(np.minimum(obstacle[k], cand))
    out.reverse()
    return out


class TestSolveRbsde:
    def test_never_binding_obstacle_is_plain_solve(self):
        lat = build_lattice(1.0, 10)
        rng = np.random.default_rng(3)
        xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(lat.N)))
        g = registry_generator("linear:-0.5,0.3")
        low = AdaptedProcess.constant(lat, -1e6)
        ref = solve_bsde(lat, xi, g)
        sol = solve_rbsde(lat, xi, g, low, "lower")
        assert sup_gap(sol.Y, ref.Y) == 0.0
        assert sol.dK.sup_norm() == 0.0

    def test_obstacle_exactly_attained(self):
        lat = build_lattice(1.0, 6)
        xi = TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s))
        sol = solve_rbsde(
            lat, xi, registry_generator("zero"), AdaptedProcess.constant(lat, 0.0)
        )
        assert sol.Y.sup_norm() == 0.0
        assert sol.dK.sup_norm() == 0.0

    def test_deterministic_reward_dynamic_program(self):
        # L_t = 1 - t, xi = 0, driver 0: the stopped value of a deterministic
        # decreasing reward is its maximum over grid times, attained now
        lat = build_lattice(1.0, 4)
        L = AdaptedProcess.from_function(lat, lambda t, s: (1.0 - t) * np.ones_like(s))
        xi = TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s))
        sol = solve_rbsde(lat, xi, registry_generator("zero"), L)
        # independent deterministic program over the grid
        v = 0.0
        for k in range(lat.N - 1, -1, -1):
            v = max(1.0 - k * lat.dt, v)
        assert v == 1.0
        assert sol.root_value == pytest.approx(1.0, abs=0)

    def test_value_dominates_obstacle_exactly(self):
        lat = build_lattice(1.0, 12)
        rng = np.random.default_rng(5)
        L = AdaptedProcess.from_function(lat, lambda t, s: 0.4 - 0.3 * t - 0.1 * s)
        xi = TerminalPayoff(
            lat, np.maximum(np.abs(rng.normal(size=lat.n_nodes(lat.N))), L[lat.N])
        )
        sol = solve_rbsde(lat, xi, registry_generator("linear:-0.2,0.1"), L)
        for k in range(lat.N + 1):
            assert np.all(sol.Y[k] >= L[k])

    def test_flat_off_exact(self):
        lat = build_lattice(1.0, 16)
        xi = TerminalPayoff.from_function(lat, lambda s: np.maximum(0.3 - s, 0.0))
        L = AdaptedProcess.from_function(lat, lambda t, s: np.maximum(0.3 - s, 0.0))
        sol = solve_rbsde(lat, xi, registry_generator("zero"), L)
        assert sol.flat_off_lower() == 0.0
        assert sol.dK.sup_norm() > 0.0  # the projection does act somewhere

    def test_terminal_order_enforced(self):
        lat = build_lattice(1.0, 4)
        xi = TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s))
        with pytest.raises(ValueError, match="terminal order"):
            solve_rbsde(lat, xi, registry_generator("zero"),
                        AdaptedProcess.constant(lat, 0.5), "lower")
        with pytest.raises(ValueError, match="terminal order"):
            solve_rbsde(lat, xi, registry_generator("zero"),
                        AdaptedProcess.constant(lat, -0.5), "upper")

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_terminal_order_error_names_the_full_tree_node(self, side):
        tree = build_lattice(1.0, 6, FULL_TREE)
        xi = TerminalPayoff.from_function(tree, lambda s: np.zeros_like(s))
        vals = [np.full(tree.n_nodes(k), -0.5 if side == "lower" else 0.5)
                for k in range(tree.N + 1)]
        vals[6][0b101101] = -vals[6][0b101101]
        with pytest.raises(ValueError, match=r"at node \(k=6, id=101101\)"):
            solve_rbsde(tree, xi, registry_generator("zero"),
                        AdaptedProcess(tree, tuple(vals)), side)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_upper_side_agrees_with_independent_clamp(self, scheme):
        # the production route goes through the sign flip; compare against a
        # direct min-clamp recursion written here
        lat = build_lattice(1.0, 9)
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = Generator(
                lambda t, s, y, z, a=rng.uniform(-0.6, 0.6), b=rng.uniform(-0.6, 0.6):
                    a * np.asarray(y) + b * np.asarray(z),
                kappa=1.0, lam=0.7, alpha=0.5, h=0.0, name="sampled-affine",
            )
            U = AdaptedProcess.from_function(
                lat, lambda t, s: 0.5 + 0.2 * np.abs(s) + 0.1 * t
            )
            xi = TerminalPayoff(
                lat, np.minimum(rng.normal(size=lat.n_nodes(lat.N)), U[lat.N])
            )
            sol = solve_rbsde(lat, xi, g, U, "upper", scheme)
            oracle = upper_clamp_oracle(lat, xi, g, U, scheme)
            for k in range(lat.N + 1):
                np.testing.assert_allclose(sol.Y[k], oracle[k], atol=1e-12, rtol=0)
            assert sol.flat_off_upper() == 0.0
            assert sol.dK.sup_norm() == 0.0
            for k in range(lat.N + 1):
                assert np.all(sol.Y[k] <= U[k])


class TestReflectedComparison:
    def test_ordered_inputs_give_ordered_values(self):
        # terminal data, obstacle and driver all ordered: the reflected
        # values inherit the order node-wise under the step guard
        lat = build_lattice(1.0, 10)
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.uniform(-0.7, 0.7)
            b = rng.uniform(-0.7, 0.7)
            c1 = rng.uniform(-0.4, 0.4)
            g1 = Generator(
                lambda t, s, y, z, a=a, b=b, c=c1: a * np.asarray(y) + b * np.asarray(z) + c,
                kappa=max(abs(a), abs(b), 1e-9), lam=a, alpha=0.5, h=abs(c1),
                name="affine1",
            )
            c2 = c1 + rng.uniform(0.0, 0.4)
            g2 = Generator(
                lambda t, s, y, z, a=a, b=b, c=c2: a * np.asarray(y) + b * np.asarray(z) + c,
                kappa=max(abs(a), abs(b), 1e-9), lam=a, alpha=0.5, h=abs(c2),
                name="affine2",
            )
            low1 = AdaptedProcess.from_function(
                lat, lambda t, s: np.maximum(0.3 - s, 0.0) - 0.1
            )
            low2 = AdaptedProcess.from_function(
                lat, lambda t, s: np.maximum(0.3 - s, 0.0)
            )
            base = np.maximum(0.3 - lat.states(lat.N), 0.0)
            xi1 = TerminalPayoff(lat, base)
            xi2 = TerminalPayoff(lat, base + rng.exponential(0.2, size=base.shape))
            s1 = solve_rbsde(lat, xi1, g1, low1, "lower", "implicit")
            s2 = solve_rbsde(lat, xi2, g2, low2, "lower", "implicit")
            for k in range(lat.N + 1):
                assert np.all(s1.Y[k] <= s2.Y[k] + 1e-12)


class TestDualityIdentity:
    def test_upper_solve_is_negated_mirror_of_lower_solve(self):
        from drbsde_lab.generator import negate_reflect

        lat = build_lattice(1.0, 10)
        rng = np.random.default_rng(17)
        g = registry_generator("linear:-0.4,0.3")
        U = AdaptedProcess.from_function(lat, lambda t, s: 0.6 + 0.1 * np.abs(s))
        xi = TerminalPayoff(
            lat, np.minimum(rng.normal(size=lat.n_nodes(lat.N)), U[lat.N])
        )
        up = solve_rbsde(lat, xi, g, U, "upper")
        mirrored = solve_rbsde(
            lat,
            TerminalPayoff(lat, -xi.values),
            negate_reflect(g),
            AdaptedProcess(lat, tuple(-v for v in U.values)),
            "lower",
        )
        for k in range(lat.N + 1):
            np.testing.assert_allclose(up.Y[k], -mirrored.Y[k], atol=1e-12, rtol=0)
            np.testing.assert_allclose(up.dJ[k], mirrored.dK[k], atol=1e-12, rtol=0)


class TestPenaltyStep:
    def test_closed_form_example(self):
        # a = 0, L = 1, dt = 0.25, n = 4: (0 + 0.25*4*1) / (1 + 0.25*4) = 0.5
        out = penalty_step(np.array([0.0]), np.array([1.0]), 4.0, 0.25, "lower")
        assert out[0] == pytest.approx(0.5)

    def test_above_obstacle_untouched(self):
        out = penalty_step(np.array([3.0]), np.array([1.0]), 4.0, 0.25, "lower")
        assert out[0] == 3.0

    def test_monotone_toward_projection(self):
        a, L, dt = -0.2, 1.0, 0.25
        prev = -np.inf
        for n in (1, 4, 16, 64, 256, 1024):
            val = float(penalty_step(np.array([a]), np.array([L]), n, dt, "lower")[0])
            assert val >= prev
            gap = L - val
            assert gap == pytest.approx((L - a) / (1 + dt * n))
            prev = val
        assert (L - prev) <= (L - a) / (dt * 1024)
        assert (L - a) / (dt * 1024) == pytest.approx(0.0046875)

    def test_upper_mirror(self):
        out = penalty_step(np.array([3.0]), np.array([1.0]), 4.0, 0.25, "upper")
        assert out[0] == pytest.approx((3.0 + 1.0) / 2.0)
        out2 = penalty_step(np.array([0.5]), np.array([1.0]), 4.0, 0.25, "upper")
        assert out2[0] == 0.5


class TestPenalizationRun:
    def setup_method(self):
        self.lat = build_lattice(1.0, 32)
        self.xi = TerminalPayoff.from_function(
            self.lat, lambda s: np.maximum(0.3 - s, 0.0)
        )
        self.L = AdaptedProcess.from_function(
            self.lat, lambda t, s: np.maximum(0.3 - s, 0.0)
        )

    def test_level_zero_is_plain_solve(self):
        g = registry_generator("linear:-0.4,0")
        levels, _ = penalization_run(
            self.lat, self.xi, g, self.L, "lower", [0.0]
        )
        ref = solve_bsde(self.lat, self.xi, g)
        assert sup_gap(levels[0].Y, ref.Y) == 0.0
        assert levels[0].kind == "plain"

    def test_monotone_convergence_from_below(self):
        # discounting pulls the continuation below the intrinsic value, so
        # the obstacle genuinely binds and the penalty has work to do
        g = registry_generator("linear:-0.5,0")
        levels, report = penalization_run(
            self.lat, self.xi, g, self.L, "lower", [1, 4, 16, 64, 256, 1024]
        )
        assert report.total_violations == 0
        assert all(b <= a for a, b in zip(report.sup_gaps, report.sup_gaps[1:]))
        assert report.sup_gaps[0] > 1e-3  # the constraint really binds
        reflected = solve_rbsde(self.lat, self.xi, g, self.L)
        for lv in levels:
            for k in range(self.lat.N + 1):
                assert np.all(lv.Y[k] <= reflected.Y[k] + 1e-13)

    def test_upper_side_monotone_from_above(self):
        g = registry_generator("zero")
        U = AdaptedProcess.from_function(
            self.lat, lambda t, s: np.maximum(0.3 - s, 0.0) + 0.4
        )
        xi = TerminalPayoff(self.lat, np.minimum(self.xi.values, U[self.lat.N]))
        levels, report = penalization_run(
            self.lat, xi, g, U, "upper", [1, 4, 16, 64, 256]
        )
        assert report.total_violations == 0
        reflected = solve_rbsde(self.lat, xi, g, U, "upper")
        for lv in levels:
            for k in range(self.lat.N + 1):
                assert np.all(lv.Y[k] >= reflected.Y[k] - 1e-14)

    def test_schedule_validation(self):
        g = registry_generator("zero")
        with pytest.raises(ValueError):
            penalization_run(self.lat, self.xi, g, self.L, "lower", [])
        with pytest.raises(ValueError):
            penalization_run(self.lat, self.xi, g, self.L, "lower", [4, 1])

    def test_csv_columns(self, tmp_path):
        g = registry_generator("zero")
        _, report = penalization_run(self.lat, self.xi, g, self.L, "lower", [1, 4])
        write_penalization_csv(tmp_path / "pen.csv", report)
        lines = (tmp_path / "pen.csv").read_text().splitlines()
        assert lines[0] == "n,sup_gap,violations"
        assert len(lines) == 3

    def test_flat_off_residual_vanishes_once_converged(self):
        # a long schedule drives the gap under the convergence tolerance;
        # there the penalty compensator only acts within the gap band
        g = registry_generator("linear:-0.5,0")
        schedule = [4.0**k for k in range(1, 14)]
        _, report = penalization_run(self.lat, self.xi, g, self.L, "lower", schedule)
        assert report.converged
        scale = report.gap_tolerance / 1e-6
        assert report.flat_off_residuals[-1] <= 1e-6 * scale


class TestFirstHitting:
    def test_never_touching_stops_at_horizon(self):
        lat = build_lattice(1.0, 6)
        xi = TerminalPayoff.from_function(lat, lambda s: np.abs(s) + 1.0)
        sol = solve_rbsde(lat, xi, registry_generator("zero"),
                          AdaptedProcess.constant(lat, -2.0))
        rule = first_hitting(sol, None, "lower")
        for k in range(lat.N):
            assert not rule.flags[k].any()
        assert rule.flags[lat.N].all()

    def test_contact_at_root_stops_immediately(self):
        lat = build_lattice(1.0, 4)
        L = AdaptedProcess.from_function(lat, lambda t, s: (1.0 - t) * np.ones_like(s))
        xi = TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s))
        sol = solve_rbsde(lat, xi, registry_generator("zero"), L)
        rule = first_hitting(sol, None, "lower")
        assert rule.flags[0][0]

    def test_eps_hit_default_scales_with_solution(self):
        lat = build_lattice(1.0, 4)
        xi = TerminalPayoff.from_function(lat, lambda s: 100.0 * np.ones_like(s))
        sol = solve_rbsde(lat, xi, registry_generator("zero"),
                          AdaptedProcess.constant(lat, -1.0))
        assert default_eps_hit(sol) == pytest.approx(1e-9 * 101.0)

    def test_missing_obstacle_rejected(self):
        lat = build_lattice(1.0, 4)
        xi = TerminalPayoff.from_function(lat, lambda s: s)
        sol = solve_bsde(lat, xi, registry_generator("zero"))
        with pytest.raises(ValueError, match="obstacle"):
            first_hitting(sol, None, "lower")


class TestVerifySnell:
    def test_backward_mode_matches(self):
        lat = build_lattice(1.0, 16)
        xi = TerminalPayoff.from_function(lat, lambda s: np.maximum(0.3 - s, 0.0))
        L = AdaptedProcess.from_function(lat, lambda t, s: np.maximum(0.3 - s, 0.0))
        g = registry_generator("linear:-0.3,0.2")
        sol = solve_rbsde(lat, xi, g, L)
        report = verify_snell(lat, sol, xi, g, "backward")
        assert report.passed, report

    def test_enumerate_mode_attains_maximum(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        L = AdaptedProcess.from_function(tree, lambda t, s: (1.0 - t) * np.ones_like(s))
        xi = TerminalPayoff.from_function(tree, lambda s: np.zeros_like(s))
        g = registry_generator("zero")
        sol = solve_rbsde(tree, xi, g, L)
        report = verify_snell(tree, sol, xi, g, "enumerate")
        assert report.rules_checked == 26
        assert report.max_gap <= 1e-12
        assert report.passed

    def test_never_binding_obstacle_maximum_at_horizon(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        L = AdaptedProcess.constant(tree, -100.0)
        rng = np.random.default_rng(1)
        xi = TerminalPayoff(tree, rng.normal(size=8))
        g = registry_generator("zero")
        sol = solve_rbsde(tree, xi, g, L)
        report = verify_snell(tree, sol, xi, g, "enumerate")
        # every rule stops on a reward <= Y_0 and waiting to the end attains it
        assert report.max_gap <= 1e-12
        assert report.sandwich_slack <= 1e-12

    def test_equality_branch_at_capped_rules(self):
        tree = build_lattice(1.0, 4, FULL_TREE)
        xi = TerminalPayoff.from_function(tree, lambda s: np.maximum(0.2 - s, 0.0))
        L = AdaptedProcess.from_function(tree, lambda t, s: np.maximum(0.2 - s, 0.0))
        g = registry_generator("linear:-0.25,0.2")
        sol = solve_rbsde(tree, xi, g, L)
        report = verify_snell(tree, sol, xi, g, "backward", sample_rules=20)
        assert report.equality_gap <= 1e-10
        assert report.sandwich_slack <= 1e-10

    def test_enumerate_needs_small_tree(self):
        lat = build_lattice(1.0, 8)
        xi = TerminalPayoff.from_function(lat, lambda s: np.zeros_like(s))
        L = AdaptedProcess.constant(lat, -1.0)
        sol = solve_rbsde(lat, xi, registry_generator("zero"), L)
        with pytest.raises(ValueError):
            verify_snell(lat, sol, xi, registry_generator("zero"), "enumerate")


class TestBatchedLevels:
    @pytest.mark.parametrize("driver", ["linear", "stopped", "tanh-sin"])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_levels_equal_separate_runs(self, scheme, side, driver):
        # the schedule runs as one sweep, a row per level; each level keeps
        # the bits and the metadata of its own one-level run
        from test_bsde import batch_driver, same_bits

        lat = build_lattice(1.0, 24)
        g = batch_driver(driver, lat)
        xi = TerminalPayoff.from_function(lat, lambda s: np.tanh(s))
        sign = 1.0 if side == "lower" else -1.0
        obstacle = AdaptedProcess.from_function(
            lat, lambda t, s: np.tanh(s) + sign * (0.2 * np.cos(3 * s) - 0.25))
        schedule = (1.0, 16.0, 256.0, 4096.0)
        levels, _ = penalization_run(lat, xi, g, obstacle, side, schedule, scheme)
        for n, level in zip(schedule, levels):
            (alone,), _ = penalization_run(lat, xi, g, obstacle, side, (n,), scheme)
            assert level.meta == alone.meta and level.meta["penalty_level"] == n
            for name in ("Y", "Z", "dK", "dJ"):
                assert same_bits(getattr(level, name), getattr(alone, name))
