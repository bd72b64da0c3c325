from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from drbsde_lab.generator import (
    Generator,
    TabulatedDriver,
    check_hypotheses,
    load_driver_file,
    negate_reflect,
    registry_generator,
    stop_generator,
)
from drbsde_lab.lattice import (
    FULL_TREE,
    AdaptedProcess,
    StoppingRule,
    build_lattice,
)


@pytest.fixture
def zero():
    return registry_generator("zero")


def sample_args(rng, m=200):
    return (
        rng.uniform(0, 1, m),
        rng.uniform(-2, 2, m),
        rng.uniform(-3, 3, m),
        rng.uniform(-3, 3, m),
    )


class TestNegateReflect:
    def test_odd_driver_fixed(self):
        g = Generator(lambda t, s, y, z: y, kappa=1.0, lam=1.0, name="y")
        gm = negate_reflect(g)
        for y in (-2.0, 0.0, 1.5):
            assert gm.fn(0.0, 0.0, y, 0.0) == pytest.approx(y)

    def test_constant_flips_sign(self):
        g = registry_generator("constant:0.7")
        assert negate_reflect(g).fn(0.0, 0.0, 0.0, 0.0) == pytest.approx(-0.7)

    def test_even_driver_negates(self):
        g = Generator(lambda t, s, y, z: y**2, kappa=1.0, lam=5.0, name="ysq")
        gm = negate_reflect(g)
        assert gm.fn(0.0, 0.0, 3.0, 0.0) == pytest.approx(-9.0)

    def test_involution_pointwise(self):
        g = Generator(
            lambda t, s, y, z: np.sin(y) + 0.3 * z - 0.1 * y * z + t * s,
            kappa=2.0, lam=1.0, name="mixed",
        )
        gg = negate_reflect(negate_reflect(g))
        rng = np.random.default_rng(1)
        t, s, y, z = sample_args(rng)
        np.testing.assert_allclose(gg.fn(t, s, y, z), g.fn(t, s, y, z), atol=1e-15)

    def test_constants_preserved(self):
        g = registry_generator("linear:-0.5,0.3")
        gm = negate_reflect(g)
        assert (gm.kappa, gm.lam, gm.alpha) == (g.kappa, g.lam, g.alpha)


class TestStopGenerator:
    def test_horizon_rule_keeps_driver(self, zero):
        tree = build_lattice(1.0, 3, FULL_TREE)
        g = registry_generator("constant:1")
        gs = stop_generator(g, StoppingRule.horizon(tree))
        masks = gs.step_mask(tree)
        for k in range(4):
            np.testing.assert_array_equal(masks[k], np.ones(tree.n_nodes(k)))

    def test_root_rule_kills_later_steps(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        g = registry_generator("constant:1")
        gs = stop_generator(g, StoppingRule.at_step(tree, 0))
        masks = gs.step_mask(tree)
        np.testing.assert_array_equal(masks[0], [1.0])
        for k in range(1, 4):
            np.testing.assert_array_equal(masks[k], np.zeros(tree.n_nodes(k)))

    def test_region_rule_masks_post_hit_nodes_exactly(self):
        # N=3 tree, rule: first hit of {state >= 1}; sqrt(dt) = 0.577 so the
        # hit needs two net up moves.  Enumerate the eight paths by hand:
        # the mask dies strictly after the first hit node on each path.
        tree = build_lattice(1.0, 3, FULL_TREE)
        rule = StoppingRule.from_region(tree, lambda t, s: s >= 1.0)
        g = stop_generator(registry_generator("constant:1"), rule)
        masks = g.step_mask(tree)
        s = tree.sqrt_dt
        # step 2 states by node index (bits, msb first): 00,01,10,11
        # -> -2s, 0, 0, 2s; only node 3 (path "11") is a hit at step 2
        np.testing.assert_array_equal(masks[0], [1.0])
        np.testing.assert_array_equal(masks[1], [1.0, 1.0])
        np.testing.assert_array_equal(masks[2], [1.0, 1.0, 1.0, 1.0])
        # step-3 children of node "11" are post-hit; everything else active
        expected = np.ones(8)
        expected[6] = expected[7] = 0.0  # paths "110", "111"
        np.testing.assert_array_equal(masks[3], expected)
        assert tree.states(2)[3] == pytest.approx(2 * s)

    def test_deterministic_rule_works_on_recombining(self):
        lat = build_lattice(1.0, 4)
        g = stop_generator(registry_generator("constant:1"), StoppingRule.at_step(lat, 2))
        masks = g.step_mask(lat)
        for k in range(5):
            expected = 1.0 if k <= 2 else 0.0
            np.testing.assert_array_equal(masks[k], np.full(lat.n_nodes(k), expected))

    def test_path_dependent_rule_needs_tree_on_recombining(self):
        lat = build_lattice(1.0, 4)
        rule = StoppingRule.from_region(lat, lambda t, s: s > 0.3)
        g = stop_generator(registry_generator("zero"), rule)
        with pytest.raises(ValueError, match="full-tree"):
            g.step_mask(lat)

    def test_lattice_mismatch_rejected(self):
        t1 = build_lattice(1.0, 3, FULL_TREE)
        t2 = build_lattice(1.0, 4, FULL_TREE)
        g = stop_generator(registry_generator("zero"), StoppingRule.horizon(t1))
        with pytest.raises(ValueError):
            g.step_mask(t2)

    def test_lam_bookkeeping(self):
        tree = build_lattice(1.0, 3, FULL_TREE)
        g = registry_generator("linear:-2,0")
        gs = stop_generator(g, StoppingRule.at_step(tree, 1))
        assert gs.lam == 0.0


class TestCheckHypotheses:
    def test_damped_sine_passes_everything(self):
        g = Generator(
            lambda t, s, y, z: -y + np.sin(z),
            kappa=1.0, lam=-1.0, alpha=0.5, h=1.0, name="damped-sin",
        )
        report = check_hypotheses(g, 4000, seed=2)
        assert report.all_pass, report

    def test_linear_z_fails_growth_bound(self):
        g = Generator(lambda t, s, y, z: z, kappa=1.0, lam=0.0, alpha=0.5, h=1.0,
                      name="bare-z")
        report = check_hypotheses(g, 4000, seed=2)
        assert not report.results["H5"].passed
        t, s, y, yp, z, zp = report.results["H5"].counterexample
        # the counterexample lives where |z| outgrows (1 + |z|)^(1/2)
        assert abs(z) > (1.0 + abs(z)) ** 0.5
        assert report.results["H1"].passed

    def test_zero_driver_always_passes(self):
        report = check_hypotheses(registry_generator("zero"), 500, seed=0)
        assert report.all_pass

    def test_adapted_h_sampled_on_lattice(self):
        lat = build_lattice(1.0, 4)
        h = AdaptedProcess.from_function(lat, lambda t, s: 1.0 + np.abs(s))
        g = Generator(
            lambda t, s, y, z: np.abs(s) * np.cos(y), kappa=1.0, lam=1.0,
            alpha=0.5, h=h, name="state-bounded",
        )
        report = check_hypotheses(g, 2000, seed=4)
        # |g(y,0)| = |s||cos y| <= 1 + |s| = h at every node
        assert report.results["H4"].passed

    def test_nan_margin_is_a_counterexample(self):
        # NaN on y > 2 only: "NaN > tol" is false, so a bare comparison
        # would let H1, H2, H4 and H5 pass with a NaN worst margin
        g = Generator(
            lambda t, s, y, z: np.where(np.asarray(y) > 2.0, np.nan, 0.0 * z),
            kappa=1.0, lam=0.0, alpha=0.5, h=0.0, name="nan-corner",
        )
        with np.errstate(invalid="ignore"):
            report = check_hypotheses(g, 500, seed=1)
        for name in ("H1", "H2", "H4", "H5"):
            res = report.results[name]
            assert not res.passed and np.isnan(res.worst), name
            t, s, y, yp, z, zp = res.counterexample
            # the first sample whose margin is NaN
            assert y > 2.0 or (name == "H2" and yp > 2.0), name
        assert not report.results["H3"].passed
        assert not report.all_pass

    def test_deterministic_under_seed(self):
        g = registry_generator("linear:0.5,0.5")
        a = check_hypotheses(g, 1000, seed=9)
        b = check_hypotheses(g, 1000, seed=9)
        assert a.results["H5"].worst == b.results["H5"].worst

    def test_each_distinct_driver_evaluation_is_made_once(self):
        # g(y, z), g(y, z'), g(y', z), g(y + delta, z) and g(y, 0)
        base = registry_generator("linear:-0.5,0.3")
        calls = []

        def counting(t, s, y, z):
            calls.append(1)
            return base.fn(t, s, y, z)

        report = check_hypotheses(replace(base, fn=counting), 500, seed=3)
        assert len(calls) == 5
        assert report == check_hypotheses(base, 500, seed=3)

    def test_sample_count_validated(self, zero):
        with pytest.raises(ValueError):
            check_hypotheses(zero, 0)


class TestRegistry:
    def test_zero(self):
        g = registry_generator("zero")
        assert g.fn(0.3, 1.0, 2.0, 3.0) == 0.0

    def test_constant(self):
        g = registry_generator("constant:-1.5")
        assert g.fn(0.0, 0.0, 9.0, 9.0) == pytest.approx(-1.5)
        assert g.h == pytest.approx(1.5)

    def test_linear(self):
        g = registry_generator("linear:2,-0.5")
        assert g.fn(0.0, 0.0, 1.0, 2.0) == pytest.approx(2.0 - 1.0)
        assert g.lam == 2.0
        assert g.kappa == 2.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            registry_generator("quadratic:1")

    def test_driver_file_round_trip(self, tmp_path):
        t = np.linspace(0, 1, 3)
        state = np.linspace(-2, 2, 5)
        y = np.linspace(-2, 2, 4)
        z = np.linspace(-2, 2, 4)
        tt, ss, yy, zz = np.meshgrid(t, state, y, z, indexing="ij")
        values = -0.5 * yy + 0.25 * zz + 0.1 * ss
        path = tmp_path / "driver.npz"
        np.savez(path, t=t, state=state, y=y, z=z, values=values,
                 kappa=0.5, lam=-0.5, alpha=0.5, h=0.0)
        g = load_driver_file(path)
        # exact at grid points and (for a multilinear function) off grid too
        assert g.fn(0.5, 1.0, -1.0, 0.5) == pytest.approx(0.5 + 0.125 + 0.1)
        assert g.fn(0.25, 0.3, 0.7, -0.9) == pytest.approx(
            -0.5 * 0.7 + 0.25 * -0.9 + 0.1 * 0.3
        )
        assert registry_generator(f"driver-file:{path}").kappa == 0.5

    def test_constants_validated(self):
        with pytest.raises(ValueError):
            Generator(lambda t, s, y, z: 0.0, kappa=0.0, lam=0.0)
        with pytest.raises(ValueError):
            Generator(lambda t, s, y, z: 0.0, kappa=1.0, lam=0.0, alpha=1.0)


def reference_interpolation(axes, values, t, state, y, z):
    """The 16-corner loop ``TabulatedDriver`` used before it gathered only
    the corners of its live axes; kept here as the oracle."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    coords = np.broadcast_arrays(
        *[np.asarray(c, dtype=float) for c in (t, state, y, z)]
    )
    out = np.zeros(coords[0].shape)
    los, ws = [], []
    for axis, c in zip(axes, coords):
        if axis.size == 1:
            los.append(np.zeros(c.shape, dtype=np.int64))
            ws.append(np.zeros(c.shape))
            continue
        lo = np.clip(np.searchsorted(axis, c, side="right") - 1, 0, axis.size - 2)
        w = np.clip((c - axis[lo]) / (axis[lo + 1] - axis[lo]), 0.0, 1.0)
        los.append(lo)
        ws.append(w)
    for corner in range(16):
        idx, weight = [], np.ones(coords[0].shape)
        for d in range(4):
            hi = (corner >> d) & 1
            step = hi if axes[d].size > 1 else 0
            idx.append(los[d] + step)
            weight = weight * (ws[d] if hi else (1.0 - ws[d]))
        out += weight * values[tuple(idx)]
    return out


def _bits(a, nan_sign=True):
    a = np.asarray(a)
    if not nan_sign:
        a = np.where(np.isnan(a), np.nan, a)
    return a.shape, a.dtype, a.view(np.uint64).tobytes()


TABLE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 / 3.0, 5e-324, 1e300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    """(axes, values) with 1-4 knots per axis, C-ordered, broadcast or transposed."""
    sizes = [draw(st.integers(1, 4)) for _ in range(4)]
    axes = []
    for n in sizes:
        start = draw(st.floats(-3.0, 3.0))
        gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
        axes.append(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    layout = draw(st.sampled_from(["contiguous", "broadcast", "transposed"]))
    if layout == "broadcast":
        # one axis of size > 1 (if any) repeats a single slice: stride 0
        live = [d for d, n in enumerate(sizes) if n > 1]
        shape = list(sizes)
        if live:
            shape[draw(st.sampled_from(live))] = 1
        flat = draw(st.lists(TABLE_VALUES, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        values = np.broadcast_to(np.array(flat).reshape(shape), sizes)
    else:
        n = int(np.prod(sizes))
        flat = np.array(draw(st.lists(TABLE_VALUES, min_size=n, max_size=n)))
        values = flat.reshape(sizes)
        if layout == "transposed":
            # Fortran order: same values, distinct slices, reversed strides
            values = np.asfortranarray(values)
    return axes, values


@st.composite
def coordinates(draw, axes):
    """Four broadcastable coordinates: knots, inside, outside, -0.0, NaN."""
    shapes = draw(mutually_broadcastable_shapes(num_shapes=4, max_dims=2, max_side=3))
    coords = []
    for axis, shape in zip(axes, shapes.input_shapes):
        lo, hi = float(axis[0]), float(axis[-1])
        point = st.one_of(
            st.sampled_from([float(a) for a in axis]),
            st.floats(lo - 1.0, hi + 1.0),
            st.sampled_from([-0.0, np.nan, -np.nan, np.inf, -np.inf]),
        )
        n = int(np.prod(shape))
        vals = draw(st.lists(point, min_size=n, max_size=n))
        if shape == () and draw(st.booleans()):
            coords.append(vals[0])  # a plain Python float
        else:
            coords.append(np.array(vals, dtype=float).reshape(shape))
    return coords


class TestTabulatedDriver:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_sixteen_corner_oracle_bitwise(self, data):
        axes, values = data.draw(tables())
        coords = data.draw(coordinates(axes))
        with np.errstate(invalid="ignore", over="ignore"):
            got = TabulatedDriver(axes, values)(*coords)
            want = reference_interpolation(axes, values, *coords)
        assert isinstance(got, np.ndarray)
        # IEEE 754 leaves the sign of a NaN result open, and numpy's scalar
        # and vector loops pick different operands: with a -NaN coordinate
        # only the NaN positions must agree; every other bit must match
        nan_sign = not any(
            np.signbit(np.asarray(c))[np.isnan(c)].any() for c in coords
        )
        assert _bits(got, nan_sign) == _bits(want, nan_sign)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_table_rejected(self, bad):
        values = np.zeros((1, 1, 2, 2))
        values[0, 0, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TabulatedDriver(([0.0], [0.0], [0.0, 1.0], [0.0, 1.0]), values)
