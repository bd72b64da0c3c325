"""Stop frontiers against the hand-written loops they replaced.

Each reference below is a frontier loop as the code used to write it out
for itself: the forward state machine that cut the pasting segments and
the loop that rebuilt its boundary rules from them, the start-mask
recursion of ``rbsde._started_mask``, the clean-path loop of
``StoppingRule.pathwise_le`` and the per-path first-flag scan of
``dynkin.payoff_R``.  The code now reads every frontier from
``StoppingRule`` and chains ``first_hitting`` for the pasting contacts; it
must give the same bits on random rules and random games.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab.bsde import _reflect, _row_process, backward_induction
from drbsde_lab.drbsde import DynkinGame, pasting_construct, solve_drbsde
from drbsde_lab.dynkin import payoff_R
from drbsde_lab.generator import registry_generator
from drbsde_lab.lattice import (
    FULL_TREE,
    RECOMBINING,
    AdaptedProcess,
    StoppingRule,
    TerminalPayoff,
    build_lattice,
)
from drbsde_lab.rbsde import _started_mask


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == float:
        got, want = got.view(np.int64), want.view(np.int64)
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# the replaced loops
# ----------------------------------------------------------------------


def pasting_reference(lattice, game, scheme, direct, eps):
    """Forward sweep of segment side and index per node, the boundary rules
    rebuilt from the index, and the one-sided backward sweep; a node within
    ``eps`` of a rail is a contact."""
    side, seg = [], []
    LOWER, UPPER = 0, 1
    for k in range(lattice.N + 1):
        if k == 0:
            cur_side = np.zeros(1, dtype=np.int8)
            cur_seg = np.ones(1, dtype=np.int64)
        else:
            cur_side = lattice.spread_to_children(side[k - 1])
            cur_seg = lattice.spread_to_children(seg[k - 1])
        if k < lattice.N:
            hit_up = direct.Y[k] >= game.U[k] - eps
            hit_low = direct.Y[k] <= game.L[k] + eps
            flip_to_upper = (cur_side == LOWER) & hit_up
            flip_to_lower = (cur_side == UPPER) & hit_low
            cur_side[flip_to_upper] = UPPER
            cur_side[flip_to_lower] = LOWER
            cur_seg[flip_to_upper | flip_to_lower] += 1
        side.append(cur_side)
        seg.append(cur_seg)
    depth_by_terminal = seg[lattice.N]
    max_depth = int(depth_by_terminal.max())

    def one_sided(k, cand):
        lower_mode = side[k] == LOWER
        return _reflect(cand, np.where(lower_mode, game.L[k], -np.inf),
                        np.where(lower_mode, np.inf, game.U[k]))

    *stacks, _ = backward_induction(lattice, game.g, game.xi.values, scheme, one_sided)
    Y, Z, dK, dJ = (_row_process(lattice, stack) for stack in stacks)

    boundaries, sides, node_counts = [], [], []
    for depth in range(1, max_depth + 1):
        in_seg = [seg[k] == depth for k in range(lattice.N + 1)]
        node_counts.append(int(sum(int(m.sum()) for m in in_seg)))
        sides.append("lower" if depth % 2 == 1 else "upper")
        if depth < max_depth:
            flags = [
                (seg[k] == depth + 1)
                & (lattice.spread_to_children(seg[k - 1] == depth) if k > 0 else True)
                for k in range(lattice.N + 1)
            ]
            flags = [np.asarray(f, dtype=bool) for f in flags]
            flags[lattice.N] = np.ones(lattice.n_nodes(lattice.N), dtype=bool)
            boundaries.append(StoppingRule(lattice, tuple(flags)))
    return {
        "Y": Y, "Z": Z, "dK": dK, "dJ": dJ,
        "boundaries": tuple(boundaries), "sides": tuple(sides),
        "node_counts": tuple(node_counts), "max_depth": max_depth,
        "segments_by_terminal": depth_by_terminal - int(seg[0][0]) + 1,
    }


def started_mask_reference(nu):
    lat = nu.lattice
    out = [np.asarray(nu.flags[0], dtype=bool)]
    for k in range(lat.N):
        out.append(lat.spread_to_children(out[k]) | nu.flags[k + 1])
    return out


def pathwise_le_reference(a, b):
    lat = a.lattice
    # clean(n): some path reaches n with neither rule flagged strictly before
    clean = np.ones(1, dtype=bool)
    for k in range(lat.N + 1):
        violated = clean & b.flags[k] & ~a.flags[k]
        if violated.any():
            return False
        if k == lat.N:
            break
        clean = lat.spread_to_children(clean & ~a.flags[k] & ~b.flags[k])
    return True


def first_flag_step_reference(rule, terminal_index):
    lat = rule.lattice
    for k in range(lat.N + 1):
        if rule.flags[k][terminal_index >> (lat.N - k)]:
            return k
    return lat.N


def payoff_reference(tau, gamma, p, game):
    lat = game.lattice
    k_tau = first_flag_step_reference(tau, p)
    k_gamma = first_flag_step_reference(gamma, p)
    if k_tau < k_gamma:
        return float(game.L[k_tau][p >> (lat.N - k_tau)])
    if k_gamma <= k_tau and k_gamma < lat.N:
        return float(game.U[k_gamma][p >> (lat.N - k_gamma)])
    return float(game.xi.values[p])


# ----------------------------------------------------------------------
# random rules and games
# ----------------------------------------------------------------------


@st.composite
def lattices(draw, modes=(FULL_TREE, RECOMBINING)):
    return build_lattice(1.0, draw(st.integers(1, 6)), draw(st.sampled_from(modes)))


def draw_rule(draw, lat, deterministic=False):
    """A rule flagging each interior node (each step, when deterministic)
    with a drawn density; the terminal step always stops."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]))
    flags = [np.full(lat.n_nodes(k), rng.random() < density) if deterministic
             else rng.random(lat.n_nodes(k)) < density for k in range(lat.N)]
    flags.append(np.ones(lat.n_nodes(lat.N), dtype=bool))
    return StoppingRule(lat, tuple(flags))


@st.composite
def rule_pairs(draw, modes=(FULL_TREE, RECOMBINING)):
    lat = draw(lattices(modes))
    return draw_rule(draw, lat), draw_rule(draw, lat)


@st.composite
def games(draw):
    """Contact-rich games on small full trees: rails a little off the
    terminal data, bent by path-dependent noise."""
    lat = build_lattice(1.0, draw(st.integers(1, 9)), FULL_TREE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = draw(st.floats(0.02, 0.3))
    noise = draw(st.floats(0.0, 0.2))
    kink = draw(st.floats(-1.0, 0.5))
    f = lambda s: np.maximum(s, kink)
    bend = [noise * rng.random(lat.n_nodes(k)) for k in range(lat.N + 1)]
    bend[lat.N][:] = 0.0
    states = [lat.states(k) for k in range(lat.N + 1)]
    lower = [f(s) - gap - 0.1 * lat.time(k) - b for k, (s, b) in enumerate(zip(states, bend))]
    upper = [f(s) + gap + 0.1 * lat.time(k) + b[::-1]
             for k, (s, b) in enumerate(zip(states, bend))]
    driver = draw(st.sampled_from(["linear:0.5,0.3", "linear:-0.5,0.3", "linear:0.5,-0.8",
                                   "constant:0.4", "constant:-0.4"]))
    game = DynkinGame(xi=TerminalPayoff.from_function(lat, f),
                      g=registry_generator(driver),
                      L=AdaptedProcess(lat, tuple(lower)), U=AdaptedProcess(lat, tuple(upper)))
    return lat, game, draw(st.sampled_from(["explicit", "implicit"]))


# ----------------------------------------------------------------------
# the frontiers equal their references
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(pair=rule_pairs((FULL_TREE,)))
def test_started_mask_is_the_recursion_on_the_full_tree(pair):
    for rule in pair:
        for got, want in zip(_started_mask(rule), started_mask_reference(rule), strict=True):
            same_bits(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_started_mask_is_the_recursion_for_deterministic_rules_on_the_walk(data):
    lat = data.draw(lattices((RECOMBINING,)))
    rule = draw_rule(data.draw, lat, deterministic=True)
    for got, want in zip(_started_mask(rule), started_mask_reference(rule), strict=True):
        same_bits(got, want)


@settings(max_examples=300, deadline=None)
@given(pair=rule_pairs())
def test_pathwise_le_is_the_clean_path_loop(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a.union(b)), (a.union(b), b)):
        assert x.pathwise_le(y) is pathwise_le_reference(x, y)


@settings(max_examples=100, deadline=None)
@given(pair=rule_pairs((FULL_TREE,)))
def test_stop_steps_and_payoff_are_the_first_flag_scan(pair):
    tau, gamma = pair
    lat = tau.lattice
    for rule in pair:
        same_bits(rule.stop_steps(),
                  np.array([first_flag_step_reference(rule, p) for p in range(1 << lat.N)]))
    f = lambda s: np.tanh(s)
    game = DynkinGame(
        xi=TerminalPayoff.from_function(lat, f), g=registry_generator("zero"),
        L=AdaptedProcess.from_function(lat, lambda t, s: f(s) - 0.3 - 0.1 * t),
        U=AdaptedProcess.from_function(lat, lambda t, s: f(s) + 0.2 + 0.1 * t),
    )
    for p in range(1 << lat.N):
        assert payoff_R(tau, gamma, p, game) == payoff_reference(tau, gamma, p, game)


@settings(max_examples=300, deadline=None)
@given(case=games())
def test_pasting_is_the_forward_state_machine(case):
    lat, game, scheme = case
    pasted, ledger = pasting_construct(lat, game, scheme)
    direct = solve_drbsde(lat, game, scheme)
    # pasting reads contacts by equality: the reference's band is 0
    want = pasting_reference(lat, game, scheme, direct, 0.0)
    for name in ("Y", "Z", "dK", "dJ"):
        for got, ref in zip(getattr(pasted, name).values, want[name], strict=True):
            same_bits(got, ref)
    assert ledger.boundaries == want["boundaries"]
    assert (ledger.sides, ledger.node_counts, ledger.max_depth) == (
        want["sides"], want["node_counts"], want["max_depth"])
    same_bits(ledger.segments_by_terminal, want["segments_by_terminal"])
