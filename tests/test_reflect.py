"""``bsde._reflect`` against the hand-written projections it replaced.

Each reference below is a projection as the solvers used to write it out
for themselves: the one-obstacle clamp and penalty, the two-obstacle clamp,
both penalty directions of the two-obstacle schemes, the pasting step and
the Monte Carlo clamp with its flat-off products.  The kernel must give the
same bits (compared as int64) on separated rails, candidates sitting on a
rail, signed zeros and penalty levels given as a ``(levels, 1)`` column.  A
side whose rows mix clamping (level inf) and penalty rows must give each row
the bits of that row's own projection.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab.bsde import _reflect, penalty_step


def same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert g.shape == w.shape
        np.testing.assert_array_equal(np.ascontiguousarray(g).view(np.int64),
                                      np.ascontiguousarray(w).view(np.int64))


# ----------------------------------------------------------------------
# the replaced projections
# ----------------------------------------------------------------------


def plain_ref(c):
    zeros = np.broadcast_to(0.0, c.shape)
    return c, zeros, zeros


def lower_clamp_ref(c, L):
    y = np.maximum(L, c)
    return y, y - c, np.broadcast_to(0.0, c.shape)


def lower_penalty_ref(c, L, n, dt):
    zeros = np.broadcast_to(0.0, c.shape)
    return penalty_step(c, L, n, dt, "lower"), zeros, zeros


def two_sided_clamp_ref(c, L, U):
    y = np.minimum(U, np.maximum(L, c))
    return y, np.maximum(L - c, 0.0), np.maximum(c - U, 0.0)


def increasing_ref(c, L, U, n, dt):
    pushed = penalty_step(c, L, n, dt, "lower")
    y = np.minimum(U, pushed)
    return y, np.broadcast_to(0.0, y.shape), pushed - y


def decreasing_ref(c, L, U, n, dt):
    pushed = penalty_step(c, U, n, dt, "upper")
    y = np.maximum(L, pushed)
    return y, y - pushed, np.broadcast_to(0.0, y.shape)


def pasting_ref(c, L, U, lower_mode):
    y = np.where(lower_mode, np.maximum(L, c), np.minimum(U, c))
    dk = np.where(lower_mode, np.maximum(L - c, 0.0), 0.0)
    dj = np.where(lower_mode, 0.0, np.maximum(c - U, 0.0))
    return y, dk, dj


def mc_clamp_ref(y, low, up, dt, penalty):
    """The path backend's clamp: the new value and the two flat-off products."""
    flat_lower = flat_upper = 0.0
    out = y
    if low is not None:
        if penalty is not None and penalty[0] == "lower":
            out = penalty_step(out, low, penalty[1], dt, "lower")
        else:
            new = np.maximum(low, out)
            flat_lower = float(np.max(np.abs((new - low) * (new - out))))
            out = new
    if up is not None:
        if penalty is not None and penalty[0] == "upper":
            out = penalty_step(out, up, penalty[1], dt, "upper")
        else:
            new = np.minimum(up, out)
            flat_upper = float(np.max(np.abs((up - new) * (out - new))))
            out = new
    return out, flat_lower, flat_upper


# ----------------------------------------------------------------------
# data: separated rails, candidates on and around them
# ----------------------------------------------------------------------

ZEROS = (0.0, -0.0)


@st.composite
def cases(draw):
    nodes = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    low, up = [], []
    for _ in range(nodes):
        gap = draw(st.floats(1e-3, 10.0))
        pinned = draw(st.sampled_from(["free", "lower", "upper"]))
        if pinned == "lower":  # a signed-zero lower rail
            a = draw(st.sampled_from(ZEROS))
            low.append(a)
            up.append(a + gap)
        elif pinned == "upper":  # a signed-zero upper rail
            b = draw(st.sampled_from(ZEROS))
            low.append(b - gap)
            up.append(b)
        else:
            mid = draw(st.floats(-20.0, 20.0))
            low.append(mid - gap / 2)
            up.append(mid + gap / 2)
    low, up = np.array(low), np.array(up)
    cand = np.empty((rows, nodes))
    for r in range(rows):
        for i in range(nodes):
            cand[r, i] = draw(st.one_of(
                st.floats(-50.0, 50.0), st.sampled_from(ZEROS + (low[i], up[i]))))
    levels = np.array(draw(st.lists(st.floats(0.0, 1e4), min_size=rows, max_size=rows)))
    dt = draw(st.floats(1e-4, 1.0))
    mode = np.array(draw(st.lists(st.booleans(), min_size=nodes, max_size=nodes)))
    return cand, low, up, levels[:, None], dt, mode


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_kernel_equals_every_replaced_projection(case):
    cand, L, U, n, dt, lower_mode = case
    same_bits(_reflect(cand), plain_ref(cand))
    same_bits(_reflect(cand, L), lower_clamp_ref(cand, L))
    same_bits(_reflect(cand, L, dt=dt, levels=(n, math.inf)), lower_penalty_ref(cand, L, n, dt))
    same_bits(_reflect(cand, L, U), two_sided_clamp_ref(cand, L, U))
    same_bits(_reflect(cand, L, U, dt, (n, math.inf)), increasing_ref(cand, L, U, n, dt))
    same_bits(_reflect(cand, L, U, dt, (math.inf, n)), decreasing_ref(cand, L, U, n, dt))
    # pasting passes each node's inactive side as -inf / +inf
    for row in cand:
        same_bits(_reflect(row, np.where(lower_mode, L, -np.inf),
                           np.where(lower_mode, np.inf, U)),
                  pasting_ref(row, L, U, lower_mode))


@settings(max_examples=200, deadline=None)
@given(case=cases(), sides=st.sampled_from(["both", "lower", "upper"]),
       penalized=st.sampled_from([None, "lower", "upper"]))
def test_kernel_equals_the_monte_carlo_clamp(case, sides, penalized):
    cand, L, U, n, dt, _ = case
    low = None if sides == "upper" else L
    up = None if sides == "lower" else U
    penalty = None if penalized is None else (penalized, float(n[0, 0]))
    levels = tuple(float(n[0, 0]) if side == penalized else math.inf
                   for side in ("lower", "upper"))
    for row in cand:
        want, want_lower, want_upper = mc_clamp_ref(row, low, up, dt, penalty)
        out, dk, dj = _reflect(row, low, up, dt, levels)
        same_bits((out,), (want,))
        # solve_mc books the flat-off products from the kernel's output
        if low is not None and penalized != "lower":
            assert float(np.max(np.abs((out - low) * dk))) == want_lower
        if up is not None and penalized != "upper":
            assert float(np.max(np.abs((up - out) * dj))) == want_upper


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_mixed_side_equals_each_row_alone(case, data):
    # per side, each row clamps (level inf) or penalizes at its own level; a
    # side mixing both gives every row the bits of its own one-row call, and
    # no inf level reaches the penalty step, so no NaN is made there
    cand, L, U, n, dt, _ = case
    rows = len(cand)
    clamps = [np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
              for _ in range(2)]
    levels = tuple(np.where(clamp, np.inf, n[:, 0])[:, None] for clamp in clamps)
    for low, up in ((L, None), (None, U), (L, U)):
        with np.errstate(invalid="raise"):
            got = _reflect(cand, low, up, dt, levels)
        for r in range(rows):
            want = _reflect(cand[r], low, up, dt, (levels[0][r, 0], levels[1][r, 0]))
            same_bits([np.broadcast_to(v, cand.shape)[r] for v in got], want)
