import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest

from drbsde_lab import lattice as lattice_module
from drbsde_lab.bsde import _driver_update, _reflect
from drbsde_lab.drbsde import DynkinGame, solve_drbsde
from drbsde_lab.generator import Generator, registry_generator
from drbsde_lab.lattice import AdaptedProcess, TerminalPayoff, build_lattice
from drbsde_lab.mc import (
    BATCHES,
    BOOTSTRAP_SAMPLES,
    CONDITION_WARN,
    STATE_CHUNK,
    McProblem,
    McResult,
    PathBundle,
    PathDataError,
    RegressionBasis,
    SingularRegressionError,
    _project,
    _states_down,
    mc_terminal,
    simulate_paths,
    solve_mc,
    write_bundle_csv,
    write_mc_sidecar,
)


class TestSimulate:
    def test_bit_exact_reproducibility(self):
        a = simulate_paths(1.0, 8, 500, 42)
        b = simulate_paths(1.0, 8, 500, 42)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.states, b.states)

    def test_per_path_derivation_independent_of_bundle_size(self):
        big = simulate_paths(1.0, 8, 1000, 7)
        small = simulate_paths(1.0, 8, 100, 7)
        assert np.array_equal(big.increments[:100], small.increments)

    @pytest.mark.parametrize("seed", [2026, -5])
    def test_draws_match_a_fresh_generator_per_path(self, seed):
        # reference: one Philox per path keyed by the 128-bit (seed, path)
        paths = simulate_paths(1.0, 4, 150, seed)
        base = (seed & ((1 << 64) - 1)) << 64
        for i in (0, 1, 149):
            gen = np.random.Generator(np.random.Philox(key=base + i))
            expected = gen.standard_normal(4) * np.sqrt(0.25)
            assert np.array_equal(paths.increments[i], expected)

    def test_seed_changes_draws(self):
        a = simulate_paths(1.0, 8, 200, 1)
        b = simulate_paths(1.0, 8, 200, 2)
        assert not np.array_equal(a.increments, b.increments)

    def test_sanity_gates(self):
        paths = simulate_paths(1.0, 16, 20000, 3)
        assert paths.gate_ok
        var = paths.diagnostics["increment_var"]
        assert abs(var - paths.dt) <= 0.1 * paths.dt

    def test_size_guards(self):
        with pytest.raises(ValueError):
            simulate_paths(1.0, 8, 50, 0)
        with pytest.raises(ValueError, match="step count"):
            simulate_paths(1.0, 0, 100, 0)
        # NaN fails no ``T <= 0`` test, and NaN or inf gives non-finite increments
        for T in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                simulate_paths(T, 8, 100, 0)


def _cumsum_states(increments):
    """The states array the bundle once stored: cumulative sums from zero."""
    M, N = increments.shape
    states = np.zeros((M, N + 1))
    np.cumsum(increments, axis=1, out=states[:, 1:])
    return states


class TestStates:
    """A bundle keeps its increments; each step's states are rebuilt."""

    def test_every_step_has_the_cumulative_sum_bits(self):
        # not a whole number of chunks; some paths start at -0.0, one stays there
        M, N = STATE_CHUNK + 37, 9
        increments = np.random.default_rng(1).normal(scale=1 / 3, size=(M, N))
        increments[::5, 0] = -0.0
        increments[M - 1] = -0.0
        paths = PathBundle(1.0, N, M, 0, increments)
        want = _cumsum_states(increments)
        assert np.signbit(want[M - 1, 1:]).all()
        assert paths.states.tobytes() == want.tobytes()
        for k in range(N + 1):
            assert paths.state(k).tobytes() == want[:, k].tobytes()
            for j in range(1, k + 1):
                assert paths.state(k, (j, want[:, j])).tobytes() == want[:, k].tobytes()
        every = paths.states_at(range(N + 1))
        assert b"".join(a.tobytes() for a in every) == want.T.tobytes()
        # one walker ascending, as the scan walks, and one in any order
        at = _states_down(paths)
        for k in range(N + 1):
            assert at(k).tobytes() == want[:, k].tobytes()
        at = _states_down(paths)
        for k in [N - 1, 3, N, 0, 1, 4, 8, 5]:
            assert at(k).tobytes() == want[:, k].tobytes()

    @pytest.mark.parametrize("split", [False, True])
    def test_no_allocation_holds_every_step(self, split, force_split):
        # the parent never holds M * (N + 1) floats at once, in the scan,
        # in the backward loop or after it
        forks = force_split(split)
        M, N = 40_000, 16
        largest = []

        def held():
            largest.append(max((t.size for t in tracemalloc.take_snapshot().traces), default=0))

        def lower(t, s):
            held()
            return np.tanh(s) - 0.3

        problem = McProblem(terminal=lambda s: np.tanh(s), lower=lower)
        tracemalloc.start()
        try:
            paths = simulate_paths(1.0, N, M, 31)
            held()
            solve_mc(paths, problem, registry_generator("linear:-0.5,0.3"))
            held()
        finally:
            tracemalloc.stop()
        assert len(forks) == 2 * split  # the draws and the design child
        assert len(largest) > 2 * N
        assert max(largest) < M * (N + 1) * 8


class TestTwoProcessDraw:
    """A forked child draws the upper half of a big bundle in place."""

    def test_split_draws_the_serial_bits(self, force_split):
        bundles = {}
        for on in (False, True):
            forks = force_split(on)
            bundles[on] = simulate_paths(1.0, 4, 40_000, 13)
            assert len(forks) == on
        serial, split = bundles[False], bundles[True]
        assert np.array_equal(split.increments, serial.increments)
        assert np.array_equal(split.states, serial.states)
        assert split.diagnostics == serial.diagnostics

    def test_draws_failing_in_the_child_are_redone_by_the_parent(self, force_split,
                                                                 monkeypatch):
        force_split(False)
        serial = simulate_paths(1.0, 4, 40_000, 13)
        forks = force_split(True)
        parent = os.getpid()
        real_philox = np.random.Philox

        def philox_in_parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError
            return real_philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", philox_in_parent_only)
        split = simulate_paths(1.0, 4, 40_000, 13)
        assert len(forks) == 1
        assert np.array_equal(split.increments, serial.increments)
        assert np.array_equal(split.states, serial.states)

    def test_small_bundles_never_fork(self, force_split):
        forks = force_split(True)
        simulate_paths(1.0, 4, lattice_module.SPLIT_MIN - 1, 13)
        assert forks == []


class TestRegression:
    def test_singular_design_is_fatal_with_diagnostics(self):
        design = np.column_stack([np.ones(50), np.ones(50)])
        with pytest.raises(SingularRegressionError, match="singular values"):
            _project(design, np.random.default_rng(0).normal(size=(50, 1)))

    def test_polynomial_design_shape(self):
        basis = RegressionBasis(3)
        states = np.random.default_rng(0).normal(size=100)
        design = basis.design(states)
        assert design.shape == (100, 4)
        # the columns 1, x, x**2, x**3, with the bits of numpy's powers
        want = np.column_stack([np.ones(100), states, states ** 2, states ** 3])
        assert design.tobytes() == want.tobytes()

    def test_degree_zero_is_a_constant_regression(self):
        states = np.random.default_rng(0).normal(size=100)
        np.testing.assert_array_equal(RegressionBasis(0).design(states), np.ones((100, 1)))

    @pytest.mark.parametrize("degree", [-1, -2])
    def test_negative_degree_rejected(self, degree):
        with pytest.raises(ValueError, match=f"basis degree must be >= 0, got {degree}"):
            RegressionBasis(degree)


class TestSolve:
    def test_martingale_payoff_estimates_zero(self):
        paths = simulate_paths(1.0, 8, 20000, 42)
        res = solve_mc(paths, McProblem(terminal=lambda s: s),
                       registry_generator("zero"))
        assert abs(res.y0) <= 3 * res.stderr

    def test_constant_driver_shifts_by_ct(self):
        paths = simulate_paths(1.0, 8, 20000, 42)
        res = solve_mc(paths, McProblem(terminal=lambda s: s),
                       registry_generator("constant:0.3"))
        emp = float(paths.states[:, -1].mean())
        assert abs(res.y0 - emp - 0.3) <= 3 * res.stderr

    def test_determinism(self):
        paths = simulate_paths(1.0, 8, 5000, 9)
        prob = McProblem(
            terminal=lambda s: np.tanh(s),
            lower=lambda t, s: np.tanh(s) - 0.3,
            upper=lambda t, s: np.tanh(s) + 0.3,
        )
        g = registry_generator("linear:-0.5,0.3")
        r1 = solve_mc(paths, prob, g)
        r2 = solve_mc(paths, prob, g)
        assert r1.y0 == r2.y0
        assert r1.stderr == r2.stderr

    def test_obstacles_enforced_path_wise(self):
        paths = simulate_paths(1.0, 8, 2000, 1)
        prob = McProblem(
            terminal=lambda s: np.tanh(s),
            lower=lambda t, s: np.tanh(s) - 0.2,
            upper=lambda t, s: np.tanh(s) + 0.2,
        )
        res = solve_mc(paths, prob, registry_generator("linear:-0.4,0.2"))
        assert res.flat_off_lower == 0.0
        assert res.flat_off_upper == 0.0

    def test_standard_error_shrinks_with_m(self):
        prob = McProblem(terminal=lambda s: s)
        g = registry_generator("constant:0.2")
        se = {}
        for m in (4000, 16000):
            paths = simulate_paths(1.0, 8, m, 11)
            se[m] = solve_mc(paths, prob, g).stderr
        ratio = se[16000] / se[4000]
        assert 0.4 <= ratio <= 0.6, se

    def test_stalled_implicit_step_raises(self):
        # dt * |a| = 12.5: the undamped iteration diverges and must not
        # hand back its last iterate
        from drbsde_lab.bsde import FixedPointError

        paths = simulate_paths(1.0, 4, 200, 0)
        problem = McProblem(terminal=lambda s: s)
        with pytest.raises(FixedPointError):
            solve_mc(paths, problem, registry_generator("linear:-50,0"),
                     scheme="implicit")

    def test_stopped_driver_rejected(self):
        from drbsde_lab.generator import stop_generator
        from drbsde_lab.lattice import StoppingRule

        lat = build_lattice(1.0, 4)
        g = stop_generator(registry_generator("constant:1"), StoppingRule.at_step(lat, 2))
        paths = simulate_paths(1.0, 4, 200, 0)
        with pytest.raises(ValueError, match="stopped"):
            solve_mc(paths, McProblem(terminal=lambda s: s), g)

    def test_terminal_order_validated(self):
        paths = simulate_paths(1.0, 4, 500, 2)
        prob = McProblem(
            terminal=lambda s: np.zeros(s.shape[0]),
            lower=lambda t, s: np.ones(s.shape[0]),
        )
        with pytest.raises(ValueError, match="below the lower obstacle"):
            solve_mc(paths, prob, registry_generator("zero"))

    # the order is exact, as on the lattice: 1e-13 above or below is out of order
    @pytest.mark.parametrize("side,shift", [("lower", 1e-13), ("upper", -1e-13)])
    def test_terminal_order_has_no_slack(self, side, shift):
        paths = simulate_paths(1.0, 4, 500, 2)
        prob = McProblem(terminal=lambda s: np.tanh(s),
                         **{side: lambda t, s: np.tanh(s) + shift})
        where = "below" if side == "lower" else "above"
        with pytest.raises(PathDataError, match=f"terminal data {where} the {side} obstacle"):
            mc_terminal(paths, prob)
        assert mc_terminal(paths, McProblem(terminal=lambda s: np.tanh(s),
                                            **{side: lambda t, s: np.tanh(s)})).shape == (500,)

    @pytest.mark.parametrize("spoiled", ["terminal", "lower", "upper"])
    def test_non_finite_data_on_a_path_rejected(self, spoiled):
        # one path's state at step 3 spoils the data there and nowhere else
        paths = simulate_paths(1.0, 4, 500, 2)
        marked = paths.states[17, 3 if spoiled != "terminal" else 4]

        def spoil(base):
            return lambda *args: np.where(args[-1] == marked, np.inf, base(args[-1]))

        rails = {"terminal": lambda s: np.tanh(s),
                 "lower": lambda s: np.tanh(s) - 0.3,
                 "upper": lambda s: np.tanh(s) + 0.3}
        prob = McProblem(
            terminal=rails["terminal"] if spoiled != "terminal" else spoil(rails["terminal"]),
            **{side: spoil(rails[side]) if side == spoiled else
               (lambda t, s, fn=rails[side]: fn(s)) for side in ("lower", "upper")},
        )
        what = "terminal data" if spoiled == "terminal" else f"{spoiled} obstacle"
        step = 4 if spoiled == "terminal" else 3
        with pytest.raises(ValueError, match=rf"{what} is not finite on path 17 at step {step}"):
            mc_terminal(paths, prob)


def reference_solve_mc(paths, problem, g, basis=RegressionBasis(), scheme="explicit"):
    """The backward pass replayed once for the full bundle and once per
    bootstrap batch, each rebuilding its design and obstacles at every step:
    the oracle for ``solve_mc``'s one shared loop."""
    M, N = paths.M, paths.N
    dt = paths.dt
    term_all = mc_terminal(paths, problem)
    max_cond = 1.0
    flat_lower = 0.0
    flat_upper = 0.0

    def clamp(y, t, states, record):
        nonlocal flat_lower, flat_upper
        low, up = (None if fn is None else np.asarray(fn(t, states), dtype=float)
                   for fn in (problem.lower, problem.upper))
        out, dk, dj = _reflect(y, low, up, dt)
        if record and low is not None:
            flat_lower = max(flat_lower, float(np.max(np.abs((out - low) * dk))))
        if record and up is not None:
            flat_upper = max(flat_upper, float(np.max(np.abs((up - out) * dj))))
        return out

    def driver_step(expectation, zhat, k, states):
        def driver(y):
            return np.asarray(g.fn(dt * k, states, y, zhat), dtype=float)

        return _driver_update(driver, expectation, dt, g.lam_plus, scheme, k)

    def backward(idx, record=False):
        nonlocal max_cond
        v = term_all[idx]
        for k in range(N - 1, 0, -1):
            states_k = paths.states[idx, k]
            design = basis.design(states_k)
            targets = np.column_stack([v, v * paths.increments[idx, k] / dt])
            fitted, cond = _project(design, targets)
            if record:
                max_cond = max(max_cond, cond)
            y = driver_step(fitted[:, 0], fitted[:, 1], k, states_k)
            v = clamp(y, dt * k, states_k, record)
        e0 = float(v.mean())
        # the (n, 1) first increments: the product solve_mc takes
        z0 = v @ paths.increments[idx, :1] / (dt * idx.size)
        origin = paths.states[idx[:1], 0]
        y0 = driver_step(np.array([e0]), np.atleast_1d(float(z0[0])), 0, origin)
        return float(clamp(y0, 0.0, origin, record)[0])

    y0 = backward(np.arange(M), record=True)
    n_batches = max(2, min(BATCHES, M // 100))
    size = M // n_batches
    batch_vals = np.array(
        [backward(np.arange(b * size, (b + 1) * size)) for b in range(n_batches)]
    )
    rng = np.random.default_rng(paths.seed ^ 0x5EED_B00F)
    resampled = rng.integers(0, n_batches, size=(BOOTSTRAP_SAMPLES, n_batches))
    stderr = float(batch_vals[resampled].mean(axis=1).std(ddof=1))
    return McResult(y0, stderr, max_cond, max_cond > CONDITION_WARN, flat_lower, flat_upper,
                    paths.seed, basis, scheme)


def _custom_driver():
    # a driver outside the registry reads the (M,) states and z
    def fn(t, state, y, z):
        return -0.4 * y + 0.2 * np.tanh(z) + 0.1 * np.sin(state)

    return Generator(fn, kappa=0.2, lam=0.4, name="custom")


_TANH = McProblem(
    terminal=lambda s: np.tanh(s),
    lower=lambda t, s: np.tanh(s) - 0.3,
    upper=lambda t, s: np.tanh(s) + 0.3,
)
_PUT = McProblem(
    terminal=lambda s: np.maximum(0.3 - s, 0.0),
    lower=lambda t, s: np.maximum(0.3 - s, 0.0),
)
_CALL = McProblem(
    terminal=lambda s: np.minimum(s - 0.2, 0.0),
    upper=lambda t, s: np.minimum(s - 0.2, 0.0),
)
_BAND = McProblem(
    terminal=lambda s: np.tanh(s + 0.1),
    lower=lambda t, s: np.tanh(s + 0.1) - 0.25,
    upper=lambda t, s: np.tanh(s + 0.1) + 0.25,
)


class TestSharedSweep:
    """``solve_mc`` equals the per-batch replay bit for bit."""

    @pytest.mark.parametrize("M,problem,spec,kwargs", [
        (5000, _TANH, "linear:-0.5,0.3", {}),
        (5000, _TANH, "linear:-0.5,0.3", {"scheme": "implicit"}),
        (20_050, _PUT, "linear:-0.5,0", {}),
        (5030, _CALL, "linear:-0.5,0.2", {"scheme": "implicit"}),
        (6010, _BAND, None, {"basis": RegressionBasis(2), "scheme": "implicit"}),
    ], ids=["explicit", "implicit", "lower-clamp-uneven", "upper-clamp-implicit-uneven",
            "custom-driver"])
    def test_equals_per_batch_replay(self, M, problem, spec, kwargs):
        paths = simulate_paths(1.0, 8, M, 17)
        g = _custom_driver() if spec is None else registry_generator(spec)
        got = solve_mc(paths, problem, g, **kwargs)
        assert got == reference_solve_mc(paths, problem, g, **kwargs)
        assert np.isfinite(got.y0) and got.stderr > 0

    def test_batch_failure_names_the_bundle_row(self):
        # the driver fails on path 4321 only where it sees the batch rows
        # (5000 of 5030 paths); that path is row 21 of batch 43
        from drbsde_lab.bsde import FixedPointError

        paths = simulate_paths(1.0, 4, 5030, 0)
        marked = paths.states[4321, 3]

        def fn(t, state, y, z):
            return np.where((state == marked) & (state.size < 5030), np.nan, -0.5 * y)

        g = Generator(fn, kappa=0.1, lam=0.5, name="nan-on-one-batch-path")
        with pytest.raises(FixedPointError) as caught:
            solve_mc(paths, McProblem(terminal=lambda s: s), g, scheme="implicit")
        assert (caught.value.step, caught.value.node) == (3, 4321)


_SPLIT_M = lattice_module.SPLIT_MIN + 3_634  # 20,018 paths: 50 batches of 400, 18 left over


def _bits(result):
    """Every ``McResult`` field, floats by their bytes (so -0.0 and NaN count)."""
    return {name: np.float64(value).tobytes() if isinstance(value, float) else value
            for name, value in vars(result).items()}


class TestDesignAhead:
    """A forked child builds each step's polynomial design one step ahead."""

    @pytest.mark.parametrize("problem,spec,kwargs", [
        (_TANH, "linear:-0.5,0.3", {"basis": RegressionBasis(3)}),
        (_BAND, None, {"basis": RegressionBasis(2), "scheme": "implicit"}),
        (_PUT, "linear:-0.5,0", {}),
    ], ids=["d1-degree3", "degree2-implicit", "lower-clamp"])
    def test_split_gives_the_serial_result(self, problem, spec, kwargs, force_split,
                                           monkeypatch):
        force_split(False)
        paths = simulate_paths(1.0, 8, _SPLIT_M, 23)
        g = _custom_driver() if spec is None else registry_generator(spec)
        serial = solve_mc(paths, problem, g, **kwargs)
        forks = force_split(True)
        real_design = RegressionBasis.design
        built = []

        def counting_design(basis, states):
            built.append(1)  # in the child, its own copy of the list grows
            return real_design(basis, states)

        monkeypatch.setattr(RegressionBasis, "design", counting_design)
        split = solve_mc(paths, problem, g, **kwargs)
        assert len(forks) == 1
        assert built == []  # the child built every design
        assert _bits(split) == _bits(serial)

    def test_the_child_runs_on_the_other_cpus(self, force_split, monkeypatch):
        force_split(False)
        paths = simulate_paths(1.0, 8, _SPLIT_M, 23)
        g = registry_generator("linear:-0.5,0.3")
        serial = solve_mc(paths, _TANH, g)
        forks = force_split(True)
        # the child runs on the CPUs that _other_cpus names at the fork
        cpu = min(os.sched_getaffinity(0))
        monkeypatch.setattr(lattice_module, "_other_cpus", lambda: {cpu})
        child_cpus = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)  # (count, lowest)
        parent = os.getpid()
        real_design = RegressionBasis.design

        def recording_design(basis, states):
            if os.getpid() != parent:
                cpus = os.sched_getaffinity(0)
                child_cpus[:] = len(cpus), min(cpus)
            return real_design(basis, states)

        monkeypatch.setattr(RegressionBasis, "design", recording_design)
        split = solve_mc(paths, _TANH, g)
        assert len(forks) == 1
        assert child_cpus.tolist() == [1, cpu]
        assert _bits(split) == _bits(serial)

    def test_serial_result_and_no_open_pipe_when_fork_fails(self, force_split, monkeypatch):
        force_split(False)
        paths = simulate_paths(1.0, 8, _SPLIT_M, 23)
        g = registry_generator("linear:-0.5,0.3")
        serial = solve_mc(paths, _TANH, g)
        force_split(True)

        def no_fork():
            raise OSError("no more processes")

        pipes = []
        real_pipe = os.pipe

        def counting_pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "pipe", counting_pipe)
        fds = sorted(os.listdir("/proc/self/fd"))
        split = solve_mc(paths, _TANH, g)
        assert len(pipes) == 2  # the split was tried
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert _bits(split) == _bits(serial)

    @pytest.mark.parametrize("fail_from", [0, 3])
    def test_designs_failing_in_the_child_are_redone_by_the_parent(
            self, fail_from, force_split, monkeypatch):
        force_split(False)
        paths = simulate_paths(1.0, 8, _SPLIT_M, 23)
        g = registry_generator("linear:-0.5,0.3")
        serial = solve_mc(paths, _TANH, g)
        forks = force_split(True)
        parent = os.getpid()
        real_design = RegressionBasis.design
        built = []

        def design_in_parent_only(basis, states):
            # the child builds ``fail_from`` designs, then dies on the next
            built.append(1)
            if os.getpid() != parent and len(built) > fail_from:
                raise MemoryError
            return real_design(basis, states)

        monkeypatch.setattr(RegressionBasis, "design", design_in_parent_only)
        split = solve_mc(paths, _TANH, g)
        assert len(forks) == 1
        # the child's calls are counted in its own copy of ``built``
        assert len(built) == paths.N - 1 - fail_from
        assert _bits(split) == _bits(serial)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_child_forks_before_the_scan_and_is_reaped_when_it_fails(self, force_split):
        force_split(False)
        paths = simulate_paths(1.0, 8, _SPLIT_M, 23)
        marked = paths.state(3)[17]
        seen = []

        def lower(t, s):
            seen.append(len(forks))
            return np.where(s == marked, np.nan, np.tanh(s) - 0.3)

        forks = force_split(True)
        problem = McProblem(terminal=lambda s: np.tanh(s), lower=lower)
        with pytest.raises(PathDataError, match="lower obstacle is not finite on path 17 at step 3"):
            solve_mc(paths, problem, registry_generator("zero"))
        assert seen == [1] * 4  # the scan ran with the child already forked
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_is_left_after_a_failing_solve(self, force_split):
        from drbsde_lab.bsde import FixedPointError

        force_split(False)
        paths = simulate_paths(1.0, 8, _SPLIT_M, 23)
        forks = force_split(True)

        def fn(t, state, y, z):
            # no fixed point at step 4, midway down the backward loop
            return -0.5 * y + (np.nan if t == 0.5 else 0.0)

        g = Generator(fn, kappa=0.5, lam=-0.5, name="nan-at-step-4")
        with pytest.raises(FixedPointError) as caught:
            solve_mc(paths, McProblem(terminal=lambda s: s), g, scheme="implicit")
        assert caught.value.step == 4
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSerialization:
    def test_bundle_csv(self, tmp_path):
        paths = simulate_paths(1.0, 3, 100, 5)
        write_bundle_csv(tmp_path / "b.csv", paths)
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "path,k,coord,dB,state"
        assert len(lines) == 1 + 100 * 3
        assert {line.split(",")[2] for line in lines[1:]} == {"0"}

    def test_estimate_sidecar(self, tmp_path):
        paths = simulate_paths(1.0, 4, 500, 6)
        res = solve_mc(paths, McProblem(terminal=lambda s: s),
                       registry_generator("zero"))
        write_mc_sidecar(tmp_path / "est.json", res)
        import json

        payload = json.loads((tmp_path / "est.json").read_text())
        assert payload["seed"] == 6
        assert payload["basis_degree"] == 3
        assert payload["bootstrap_samples"] == 500
        assert sorted(payload) == sorted([
            "y0", "stderr", "seed", "scheme", "basis_degree", "max_condition",
            "condition_warning", "flat_off_lower", "flat_off_upper", "bootstrap_samples"])


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
        paths = simulate_paths(1.0, 16, 20000, 99)
        prob = McProblem(
            terminal=lambda s: f(s),
            lower=lambda t, s: f(s) - 0.25,
            upper=lambda t, s: f(s) + 0.25,
        )
        res = solve_mc(paths, prob, g, RegressionBasis(3))
        scale = game.scale()
        assert abs(res.y0 - ref) <= 3 * res.stderr + 0.05 * scale
