import math

import numpy as np
import pytest

from drbsde_lab.lattice import (
    FULL_TREE,
    RECOMBINING,
    AdaptedProcess,
    StoppingRule,
    TerminalPayoff,
    build_lattice,
    conditional_expectation,
    conditional_expectation_chain,
    martingale_increment,
    read_process_csv,
    write_lattice_csv,
    write_process_csv,
)


def brownian(lattice):
    return [lattice.states(k) for k in range(lattice.N + 1)]


class TestBuild:
    def test_single_step_states(self):
        lat = build_lattice(1.0, 1, RECOMBINING)
        assert lat.total_nodes == 3
        np.testing.assert_array_equal(lat.states(0), [0.0])
        np.testing.assert_array_equal(lat.states(1), [-1.0, 1.0])

    def test_full_tree_node_count(self):
        lat = build_lattice(1.0, 4, FULL_TREE)
        assert lat.total_nodes == 31
        assert [lat.n_nodes(k) for k in range(5)] == [1, 2, 4, 8, 16]

    def test_step_scaling(self):
        lat = build_lattice(2.0, 8, RECOMBINING)
        assert lat.dt == 0.25
        np.testing.assert_allclose(lat.states(1), [-0.5, 0.5])

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -3)])
    def test_bad_parameters(self, T, N):
        with pytest.raises(ValueError):
            build_lattice(T, N)

    def test_full_tree_size_guard(self):
        with pytest.raises(ValueError, match="full-tree"):
            build_lattice(1.0, 25, FULL_TREE)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_lattice(1.0, 4, "trinomial")

    def test_states_reproducible(self):
        a = build_lattice(1.0, 6, FULL_TREE)
        b = build_lattice(1.0, 6, FULL_TREE)
        for k in range(7):
            np.testing.assert_array_equal(a.states(k), b.states(k))


class TestConditionalExpectation:
    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_constant(self, mode):
        lat = build_lattice(1.0, 5, mode)
        c = np.full(lat.n_nodes(3), 2.5)
        np.testing.assert_array_equal(
            conditional_expectation(lat, 2, c), np.full(lat.n_nodes(2), 2.5)
        )

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_brownian_is_martingale(self, mode):
        lat = build_lattice(1.0, 5, mode)
        b = brownian(lat)
        for k in range(5):
            np.testing.assert_allclose(
                conditional_expectation(lat, k, b[k + 1]), b[k], atol=1e-15
            )

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_brownian_squared(self, mode):
        # hand expansion: ((b+s)^2 + (b-s)^2) / 2 = b^2 + s^2 with s^2 = dt
        lat = build_lattice(1.0, 5, mode)
        b = brownian(lat)
        for k in range(5):
            np.testing.assert_allclose(
                conditional_expectation(lat, k, b[k + 1] ** 2),
                b[k] ** 2 + lat.dt,
                atol=1e-15,
            )

    def test_step_out_of_range(self):
        lat = build_lattice(1.0, 3)
        with pytest.raises(ValueError):
            conditional_expectation(lat, 3, np.zeros(4))

    def test_size_mismatch(self):
        lat = build_lattice(1.0, 3)
        with pytest.raises(ValueError):
            conditional_expectation(lat, 1, np.zeros(5))


@pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
@pytest.mark.parametrize("op", [conditional_expectation, martingale_increment])
def test_batch_rows_equal_their_one_row_calls(mode, op):
    lat = build_lattice(1.0, 5, mode)
    rng = np.random.default_rng(11)
    for k in range(5):
        rows = rng.normal(size=(3, lat.n_nodes(k + 1)))
        got = op(lat, k, rows)
        want = np.stack([op(lat, k, row) for row in rows])
        assert got.shape == want.shape == (3, lat.n_nodes(k))
        assert got.tobytes() == want.tobytes()
    # nodes must run along the last axis, whatever leads
    for bad in (np.zeros((lat.n_nodes(3), 3)), np.zeros((3, lat.n_nodes(3) + 1)),
                np.float64(0.0)):
        with pytest.raises(ValueError, match="last axis"):
            op(lat, 2, bad)


class TestMartingaleIncrement:
    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_constant_gives_zero(self, mode):
        lat = build_lattice(1.0, 4, mode)
        c = np.full(lat.n_nodes(2), 7.0)
        np.testing.assert_array_equal(
            martingale_increment(lat, 1, c), np.zeros(lat.n_nodes(1))
        )

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_brownian_integrand_is_one(self, mode):
        lat = build_lattice(1.0, 4, mode)
        b = brownian(lat)
        for k in range(4):
            np.testing.assert_allclose(
                martingale_increment(lat, k, b[k + 1]), 1.0, atol=1e-14
            )

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_brownian_squared_integrand(self, mode):
        # ((b+s)^2 - (b-s)^2) / (2 s) = 2 b
        lat = build_lattice(1.0, 4, mode)
        b = brownian(lat)
        for k in range(4):
            np.testing.assert_allclose(
                martingale_increment(lat, k, b[k + 1] ** 2), 2 * b[k], atol=1e-14
            )

    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_one_step_reconstruction_identity(self, mode):
        # X_{k+1} = E_k[X] + Z_k * dB exactly, child by child
        lat = build_lattice(1.5, 6, mode)
        rng = np.random.default_rng(7)
        for k in range(6):
            x = rng.normal(size=lat.n_nodes(k + 1))
            e = conditional_expectation(lat, k, x)
            z = martingale_increment(lat, k, x)
            down, up = lat.split_children(x)
            np.testing.assert_allclose(up, e + z * lat.sqrt_dt, atol=1e-14)
            np.testing.assert_allclose(down, e - z * lat.sqrt_dt, atol=1e-14)


class TestChildPrimitives:
    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_split_children_takes_leading_batch_axes(self, mode):
        lat = build_lattice(1.0, 4, mode)
        x = np.random.default_rng(2).normal(size=(3, 2, lat.n_nodes(3)))
        down, up = lat.split_children(x)
        for i in range(3):
            for j in range(2):
                d1, u1 = lat.split_children(x[i, j])
                assert np.array_equal(down[i, j], d1) and np.array_equal(up[i, j], u1)

    def test_spread_repeats_tree_values_and_ors_walk_flags(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        np.testing.assert_array_equal(
            tree.spread_to_children(np.array([4, 7])), [4, 4, 7, 7]
        )
        walk = build_lattice(1.0, 3, RECOMBINING)
        np.testing.assert_array_equal(
            walk.spread_to_children(np.array([True, False, False])),
            [True, True, False, False],
        )


class TestTowerProperty:
    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_chain_root_is_weighted_terminal_average(self, mode):
        lat = build_lattice(1.0, 10, mode)
        rng = np.random.default_rng(3)
        xi = TerminalPayoff(lat, rng.normal(size=lat.n_nodes(lat.N)))
        chain = conditional_expectation_chain(lat, xi)
        direct = float(lat.terminal_weights() @ xi.values)
        assert abs(chain[0][0] - direct) <= 1e-12


class TestBackendAgreement:
    def test_state_functions_agree_up_to_n10(self):
        # any process that is a function of the current state must produce
        # identical chains on both backends
        for n in (3, 7, 10):
            rec = build_lattice(1.0, n, RECOMBINING)
            tree = build_lattice(1.0, n, FULL_TREE)
            f = lambda s: np.sin(3 * s) + 0.5 * s**2
            chain_r = conditional_expectation_chain(rec, TerminalPayoff.from_function(rec, f))
            chain_t = conditional_expectation_chain(tree, TerminalPayoff.from_function(tree, f))
            for k in range(n + 1):
                ups = tree.up_counts(k)
                np.testing.assert_allclose(
                    chain_t[k], chain_r[k][ups], atol=1e-12, rtol=0
                )


class TestProcesses:
    def test_from_function_shape_checks(self):
        lat = build_lattice(1.0, 3)
        p = AdaptedProcess.from_function(lat, lambda t, s: t + s)
        assert p[2].shape == (3,)
        with pytest.raises(ValueError):
            AdaptedProcess(lat, tuple(np.zeros(2) for _ in range(4)))

    def test_terminal_payoff_must_be_finite(self):
        lat = build_lattice(1.0, 2)
        with pytest.raises(ValueError):
            TerminalPayoff(lat, np.array([1.0, np.inf, 0.0]))

    def test_values_immutable(self):
        lat = build_lattice(1.0, 2)
        p = AdaptedProcess.constant(lat, 1.0)
        with pytest.raises(ValueError):
            p[0][0] = 2.0


class TestStoppingRule:
    def test_terminal_flags_required(self):
        lat = build_lattice(1.0, 2, FULL_TREE)
        flags = [np.zeros(1, bool), np.zeros(2, bool), np.zeros(4, bool)]
        with pytest.raises(ValueError, match="terminal"):
            StoppingRule(lat, tuple(flags))

    def test_canonicalize_idempotent(self):
        lat = build_lattice(1.0, 4, FULL_TREE)
        rng = np.random.default_rng(5)
        for _ in range(20):
            flags = [rng.random(lat.n_nodes(k)) < 0.4 for k in range(4)]
            flags.append(np.ones(16, bool))
            rule = StoppingRule(lat, tuple(flags))
            canon = rule.canonicalize()
            again = canon.canonicalize()
            assert canon == again

    def test_canonicalize_is_computed_once(self):
        # the canonical rule is cached on the rule, and its flags are those
        # of a fresh computation: each flag kept where no ancestor stops
        lat = build_lattice(1.0, 4, FULL_TREE)
        rng = np.random.default_rng(7)
        for _ in range(10):
            flags = [rng.random(lat.n_nodes(k)) < 0.4 for k in range(4)]
            flags.append(np.ones(16, bool))
            rule = StoppingRule(lat, tuple(flags))
            canon = rule.canonicalize()
            assert canon is rule.canonicalize()
            fresh = StoppingRule(lat, tuple(flags))
            reach = fresh.not_yet_stopped()
            for k in range(4):
                np.testing.assert_array_equal(canon.flags[k], flags[k] & reach[k])
            assert canon.flags[4].all()

    def test_canonicalize_clears_shadowed_flags(self):
        lat = build_lattice(1.0, 2, FULL_TREE)
        # root flagged: everything below is shadowed
        flags = (np.array([True]), np.array([True, True]), np.ones(4, bool))
        canon = StoppingRule(lat, flags).canonicalize()
        assert canon.flags[0][0]
        assert not canon.flags[1].any()

    def test_union_stops_earlier(self):
        lat = build_lattice(1.0, 3, FULL_TREE)
        a = StoppingRule.at_step(lat, 1)
        b = StoppingRule.at_step(lat, 2)
        u = a.union(b)
        np.testing.assert_array_equal(u.stop_steps(), np.full(8, 1))

    def test_pathwise_le(self):
        lat = build_lattice(1.0, 3, FULL_TREE)
        early = StoppingRule.at_step(lat, 1)
        late = StoppingRule.at_step(lat, 2)
        assert early.pathwise_le(late)
        assert not late.pathwise_le(early)
        assert early.pathwise_le(early)
        region = StoppingRule.from_region(lat, lambda t, s: s >= 0.5)
        assert region.union(early).pathwise_le(region)

    def test_stop_steps_region(self):
        lat = build_lattice(1.0, 2, FULL_TREE)
        rule = StoppingRule.from_region(lat, lambda t, s: s > 0.1)
        # paths: 00, 01, 10, 11 (bit 1 = up); first up move stops
        np.testing.assert_array_equal(rule.stop_steps(), [2, 2, 1, 1])

    def test_deterministic_detection(self):
        lat = build_lattice(1.0, 3, FULL_TREE)
        assert StoppingRule.at_step(lat, 2).is_deterministic()
        assert not StoppingRule.from_region(lat, lambda t, s: s > 0).is_deterministic()

    def test_hash_stable(self):
        lat = build_lattice(1.0, 3, FULL_TREE)
        a = StoppingRule.at_step(lat, 1)
        b = StoppingRule.at_step(lat, 1)
        assert a.hash_hex() == b.hash_hex()
        assert a == b


class TestSerialization:
    @pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
    def test_process_round_trip(self, tmp_path, mode):
        lat = build_lattice(1.0, 5, mode)
        rng = np.random.default_rng(11)
        p = AdaptedProcess(
            lat, tuple(rng.normal(size=lat.n_nodes(k)) * 1e3 for k in range(6))
        )
        path = tmp_path / "proc.csv"
        write_process_csv(path, p)
        q = read_process_csv(path, lat)
        for k in range(6):
            np.testing.assert_array_equal(p[k], q[k])

    def test_header_and_precision(self, tmp_path):
        lat = build_lattice(1.0, 1)
        p = AdaptedProcess(lat, (np.array([1 / 3]), np.array([math.pi, -1e-17])))
        path = tmp_path / "p.csv"
        write_process_csv(path, p)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,node-id,state,value"
        assert "0.33333333333333331" in lines[1]

    def test_lattice_descriptor(self, tmp_path):
        lat = build_lattice(1.0, 2, FULL_TREE)
        path = tmp_path / "lat.csv"
        write_lattice_csv(path, lat)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,node-id,state,value"
        assert len(lines) == 1 + 7
