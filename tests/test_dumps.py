"""Streaming dump writers against the ``csv.writer`` loops they replaced.

The reference writers below are the per-node ``csv.writer`` loops the
package used before dumps were streamed in chunks with each distinct float
formatted once.  The streaming writers must reproduce their bytes exactly,
for chunks that hold part of a step, a whole step or several steps, and for
values that a dedupe by value instead of by bit pattern would get wrong.
"""

import csv
import hashlib
import math
import mmap
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab import dtoa
from drbsde_lab import lattice as lattice_module
from drbsde_lab.bsde import SOLUTION_HEADER, Solution, write_solution_csv
from drbsde_lab.lattice import (
    DUMP_CHUNK,
    FIXED_MIN,
    FULL_TREE,
    PROCESS_HEADER,
    RECOMBINING,
    AdaptedProcess,
    _float_cells,
    build_lattice,
    write_lattice_csv,
    write_process_csv,
)
from drbsde_lab.mc import PathBundle, simulate_paths, write_bundle_csv


def _fmt(x) -> str:
    return "{:.17g}".format(float(x))


def reference_node_ids(lat, k):
    if lat.mode == RECOMBINING:
        return [str(j) for j in range(k + 1)]
    return [format(p, f"0{k}b") if k else "" for p in range(1 << k)]


def reference_process_csv(path, process):
    lat = process.lattice
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PROCESS_HEADER)
        for k in range(lat.N + 1):
            states = lat.states(k)
            ids = reference_node_ids(lat, k)
            vals = process[k]
            for i in range(lat.n_nodes(k)):
                w.writerow([k, ids[i], _fmt(states[i]), _fmt(vals[i])])


def reference_lattice_csv(path, lattice):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PROCESS_HEADER)
        for k in range(lattice.N + 1):
            states = lattice.states(k)
            ids = reference_node_ids(lattice, k)
            for i in range(lattice.n_nodes(k)):
                w.writerow([k, ids[i], _fmt(states[i]), ""])


def reference_solution_csv(path, sol):
    lat = sol.lattice
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SOLUTION_HEADER)
        for k in range(lat.N + 1):
            states = lat.states(k)
            ids = reference_node_ids(lat, k)
            z = sol.Z[k] if k < lat.N else None
            for i in range(lat.n_nodes(k)):
                w.writerow([
                    k,
                    ids[i],
                    _fmt(states[i]),
                    _fmt(sol.Y[k][i]),
                    _fmt(z[i]) if z is not None else "",
                    _fmt(sol.dK[k][i]),
                    _fmt(sol.dJ[k][i]),
                ])


def reference_bundle_csv(path, bundle):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "k", "coord", "dB", "state"])
        for i in range(bundle.M):
            for k in range(bundle.N):
                w.writerow([
                    i, k, 0,
                    f"{bundle.increments[i, k]:.17g}",
                    f"{bundle.states[i, k + 1]:.17g}",
                ])


def _nan_with_payload(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


SPECIAL = [
    0.0, -0.0, math.nan, -math.nan, _nan_with_payload(0x7FF8000000000123),
    _nan_with_payload(0xFFF0000000000001), math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 1 / 3, -1 / 3, 0.1, 1e300,
]

# a few values to repeat heavily, sometimes mixed into all-distinct noise
palettes = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1,
    max_size=8,
)
fills = st.tuples(palettes, st.booleans(), st.integers(0, 2**32 - 1))


def _values(fill, size: int) -> np.ndarray:
    palette, noisy, seed = fill
    rng = np.random.default_rng(seed)
    out = np.array(palette, dtype=np.float64)[rng.integers(len(palette), size=size)]
    if noisy:
        keep = rng.random(size) < 0.5
        noise = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        out = np.where(keep, out, noise)
    return out


def _process(lat, fill) -> AdaptedProcess:
    palette, noisy, seed = fill
    return AdaptedProcess(lat, tuple(
        _values((palette, noisy, seed + k), lat.n_nodes(k)) for k in range(lat.N + 1)
    ))


# (mode, N, chunk); chunks run over the flattened node order, so they span
# steps.  The recombining N=9 steps start at rows 0, 1, 3, 6, 10, 15, 21,
# 28, 36, 45 (55 rows), the full-tree N=5 steps at 0, 1, 3, 7, 15, 31 (63).
LAYOUTS = [
    # a chunk as long as some step
    (RECOMBINING, 9, 5), (FULL_TREE, 5, 4),
    # the last chunk holds whole steps and the horizon, blank and filled Z
    (RECOMBINING, 9, 28), (FULL_TREE, 5, 64),
    # boundaries inside steps, the horizon's included
    (RECOMBINING, 9, 7), (FULL_TREE, 5, 10),
    # one row per chunk
    (RECOMBINING, 9, 1), (FULL_TREE, 5, 1),
]


def _layout_id(layout):
    mode, n, chunk = layout
    return f"{mode}-N{n}-chunk{chunk}"


def _solution(lat, y, z, dk, dj) -> Solution:
    return Solution("doubly-reflected", _process(lat, y), _process(lat, z),
                    _process(lat, dk), _process(lat, dj))


def assert_same_bytes(write, reference, obj, directory):
    write(directory / "new.csv", obj)
    reference(directory / "ref.csv", obj)
    assert (directory / "new.csv").read_bytes() == (directory / "ref.csv").read_bytes()


def assert_node_dumps_match(lat, fill, sol, directory):
    assert_same_bytes(write_process_csv, reference_process_csv, _process(lat, fill), directory)
    assert_same_bytes(write_lattice_csv, reference_lattice_csv, lat, directory)
    assert_same_bytes(write_solution_csv, reference_solution_csv, sol, directory)


@pytest.mark.parametrize("layout", LAYOUTS, ids=_layout_id)
@settings(max_examples=20, deadline=None)
@given(fill=fills, y=fills, z=fills, dk=fills, dj=fills)
def test_node_dumps_match_reference(layout, fill, y, z, dk, dj, tmp_path_factory):
    mode, n, chunk = layout
    lat = build_lattice(1.0, n, mode)
    with mock.patch.object(lattice_module, "DUMP_CHUNK", chunk):
        assert_node_dumps_match(lat, fill, _solution(lat, y, z, dk, dj),
                                tmp_path_factory.mktemp("nodes"))


# the package's own chunk: 16,383 rows, the boundaries inside steps 12 and 13
@settings(max_examples=3, deadline=None)
@given(fill=fills, y=fills, z=fills, dk=fills, dj=fills)
def test_node_dumps_match_reference_at_package_chunk(fill, y, z, dk, dj, tmp_path_factory):
    lat = build_lattice(1.0, 13, FULL_TREE)
    assert lat.n_nodes(12) == DUMP_CHUNK
    assert_node_dumps_match(lat, fill, _solution(lat, y, z, dk, dj),
                            tmp_path_factory.mktemp("tree"))


# rows per path are N = 6: one chunk holds two paths, exactly one, or less;
# the states are the increments' running sums, so inf - inf makes NaN quietly
@pytest.mark.parametrize("chunk", [13, 6, 4])
@settings(max_examples=15, deadline=None)
@given(dB=fills)
def test_bundle_dump_matches_reference(chunk, dB, tmp_path_factory):
    m, n = 5, 6
    bundle = PathBundle(1.0, n, m, 0, _values(dB, m * n).reshape(m, n))
    with mock.patch.object(lattice_module, "DUMP_CHUNK", chunk), np.errstate(invalid="ignore",
                                                                             over="ignore"):
        assert_same_bytes(write_bundle_csv, reference_bundle_csv, bundle,
                          tmp_path_factory.mktemp("bundle"))


# N = 7 rows per path does not divide the chunk, so chunks cut paths, and
# the bundle has enough rows for the split child to write the upper half
def test_split_bundle_dump_matches_reference(force_split, tmp_path):
    n = 7
    m = -(-lattice_module.SPLIT_MIN // n) + 5
    assert DUMP_CHUNK % n
    bundle = simulate_paths(1.0, n, m, 5)
    reference_bundle_csv(tmp_path / "reference.csv", bundle)
    for on in (False, True):
        forks = force_split(on)
        write_bundle_csv(tmp_path / f"{on}.csv", bundle)
        assert len(forks) == on
        assert (tmp_path / f"{on}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["False.csv", "True.csv",
                                                         "reference.csv"]


@pytest.mark.parametrize("mode", [RECOMBINING, FULL_TREE])
def test_node_id_ranges_match_whole_step(mode):
    lat = build_lattice(1.0, 10, mode)
    for k in range(lat.N + 1):
        n = lat.n_nodes(k)
        ids = reference_node_ids(lat, k)
        assert lat.node_ids(k) == ids
        edges = sorted({0, 1, 2, 255, 256, 257, 300, 511, 512, n - 1, n} & set(range(n + 1)))
        for start in edges:
            for stop in edges:
                if start <= stop:
                    assert lat.node_ids(k, start, stop) == ids[start:stop]


# ----------------------------------------------------------------------
# each float against "{:.17g}".format: the fixed-notation kernel
# (dtoa.fixed17, for a column with FIXED_MIN values in [1e-4, 1e16)) and
# bytes % for the rest
# ----------------------------------------------------------------------


def _log_uniform(rng, n):
    """Magnitudes 1e-6 .. 1e18, both signs: the fixed range and past both ends."""
    return 10.0 ** rng.uniform(-6, 18, n) * rng.choice([-1.0, 1.0], n)


def _powers_of_ten():
    """``10**E`` for E in [-4, 16], read two ways, and the doubles next to
    them: where ``floor(log10|x|)`` can miss the exponent by one."""
    p = np.array([10.0 ** e for e in range(-4, 17)] + [float(f"1e{e}") for e in range(-4, 17)])
    p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([p, -p])


def _binary_ties(rng, n):
    """``x = m * 2**(-1 - p)`` with ``m`` odd and ``m * 5**p / 2`` in
    ``[1e16, 1e17)``: ``x * 10**(16 - E)`` is exactly half an odd integer,
    so round-half-even decides the 17th digit, up or down."""
    p = rng.integers(2, 21, n)
    lo = np.ceil(2e16 / 5.0 ** p)
    hi = np.minimum(2e17 / 5.0 ** p, 2.0 ** 53 - 1)
    m = np.floor(lo + rng.random(n) * (hi - lo)).astype(np.int64) | 1
    return np.ldexp(m.astype(np.float64), -1 - p) * rng.choice([-1.0, 1.0], n)


def _decimal_fractions(rng, n):
    """Integers below 10**17 divided by ``10**j``: short decimals, trailing
    zeros and whole numbers."""
    ints = rng.integers(1, 10 ** 17, n).astype(np.float64)
    return ints / 10.0 ** rng.integers(0, 23, n) * rng.choice([-1.0, 1.0], n)


def _bit_patterns(rng, n):
    """Random float64 bit patterns: NaN payloads, infinities, subnormals."""
    return rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64, endpoint=True).view(np.float64)


def _formatted(values) -> list:
    return [_fmt(v).encode() for v in values.tolist()]


def _chunked_cells(values) -> list:
    return [c for start in range(0, values.size, DUMP_CHUNK)
            for c in _float_cells(values[start:start + DUMP_CHUNK]).tolist()]


def test_a_million_floats_have_the_bytes_of_format(monkeypatch):
    rng = np.random.default_rng(20141207)
    families = [
        _log_uniform(rng, 500_000),
        np.tile(_powers_of_ten(), 8),
        _binary_ties(rng, 200_000),
        _decimal_fractions(rng, 200_000),
        _bit_patterns(rng, 100_000),
        np.tile(np.array(SPECIAL), 20),
    ]
    # shuffled, so that every chunk holds enough values in [1e-4, 1e16) for
    # the kernel and each family's values reach it
    values = rng.permutation(np.concatenate(families))
    assert values.size >= 10 ** 6
    kernel = []
    real = dtoa.fixed17
    monkeypatch.setattr(dtoa, "fixed17", lambda x, neg: kernel.append(x.size) or real(x, neg))
    got, want = _chunked_cells(values), _formatted(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} mismatches, the first {bad[:3]}"
    assert len(kernel) == -(-values.size // DUMP_CHUNK)  # every chunk
    assert sum(kernel) > 750_000  # three quarters of the values


def test_no_double_in_the_fixed_range_rounds_up_to_a_power_of_ten():
    # why dtoa._decimal17 has no carry to handle: 10**E is a double for
    # E >= 0, and the doubles nearest 10**-1 .. 10**-4 lie above them
    for k in range(1, 5):
        assert Fraction(float(f"1e-{k}")) > Fraction(1, 10 ** k)


def test_fewer_than_fixed_min_values_in_range_keep_bytes_percent(monkeypatch):
    def no_kernel(x, neg):
        raise AssertionError("the kernel ran below FIXED_MIN")

    monkeypatch.setattr(dtoa, "fixed17", no_kernel)
    values = np.concatenate([np.linspace(1.0, 2.0, FIXED_MIN - 1), np.full(500, math.nan),
                             np.arange(1000) * 1e-300])
    assert _float_cells(values).tolist() == _formatted(values)


def _in_range_fill(seed):
    """Node values mostly in [1e-4, 1e16), a few zeros and out-of-range
    values, and all distinct enough that each chunk column takes the kernel."""
    rng = np.random.default_rng(seed)

    def values(size):
        out = rng.standard_normal(size) * 10.0 ** rng.uniform(-3.5, 15, size)
        out[rng.random(size) < 0.02] = 0.0
        out[rng.random(size) < 0.02] *= 1e-9
        return out

    return values


@pytest.mark.parametrize("mode,n", [(FULL_TREE, 13), (RECOMBINING, 150)])
def test_node_dumps_in_the_fixed_range_match_reference(mode, n, monkeypatch, tmp_path):
    lat = build_lattice(1.0, n, mode)
    kernel = []
    real = dtoa.fixed17
    monkeypatch.setattr(dtoa, "fixed17", lambda x, neg: kernel.append(x.size) or real(x, neg))
    monkeypatch.setattr(lattice_module, "_usable_cpus", lambda: 1)  # no fork: calls counted here
    fills = [_in_range_fill(seed) for seed in range(5)]

    def proc(fill):
        return AdaptedProcess(lat, tuple(fill(lat.n_nodes(k)) for k in range(lat.N + 1)))

    sol = Solution("doubly-reflected", *map(proc, fills[1:]))
    assert_same_bytes(write_process_csv, reference_process_csv, proc(fills[0]), tmp_path)
    assert_same_bytes(write_solution_csv, reference_solution_csv, sol, tmp_path)
    # at least the process dump's values and Y, K and J of every chunk (a
    # chunk of terminal rows has no Z)
    assert len(kernel) >= 4 * math.ceil(lat.total_nodes / DUMP_CHUNK)


# ----------------------------------------------------------------------
# the two-process split: a forked child writes the tail of big node dumps
# ----------------------------------------------------------------------


def _big_solution(lat) -> Solution:
    return _solution(lat, *((SPECIAL, noisy, seed) for noisy, seed in
                            ((True, 7), (True, 8), (False, 9), (True, 10))))


BIG = [(FULL_TREE, 15), (RECOMBINING, 300)]


def _dump_digests(lat, sol, directory) -> dict:
    digests = {}
    for write, obj in ((write_solution_csv, sol), (write_process_csv, sol.Y),
                       (write_lattice_csv, lat)):
        path = directory / f"{write.__name__}.csv"
        write(path, obj)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert sorted(p.name for p in directory.iterdir()) == sorted(digests)
    return digests


@pytest.mark.parametrize("mode,n", BIG)
def test_split_node_dumps_have_the_serial_bytes(mode, n, force_split, tmp_path):
    lat = build_lattice(1.0, n, mode)
    assert lat.total_nodes >= lattice_module.SPLIT_MIN
    sol = _big_solution(lat)
    digests = {}
    for on in (False, True):
        forks = force_split(on)
        (tmp_path / str(on)).mkdir()
        digests[on] = _dump_digests(lat, sol, tmp_path / str(on))
        assert len(forks) == (3 if on else 0)
    assert digests[True] == digests[False]


@pytest.mark.parametrize("mode,n", BIG)
def test_work_failing_in_the_child_is_redone_by_the_parent(mode, n, force_split, monkeypatch,
                                                           tmp_path):
    lat = build_lattice(1.0, n, mode)
    sol = _big_solution(lat)
    force_split(False)
    (tmp_path / "serial").mkdir()
    serial = _dump_digests(lat, sol, tmp_path / "serial")

    forks = force_split(True)
    parent = os.getpid()
    real_format = lattice_module._float_cells
    raised = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)  # seen by the children

    def format_in_parent_only(values):
        if os.getpid() != parent:
            raised[0] += 1
            raise KeyboardInterrupt  # a BaseException: the child still exits 1
        return real_format(values)

    monkeypatch.setattr(lattice_module, "_float_cells", format_in_parent_only)
    (tmp_path / "split").mkdir()
    assert _dump_digests(lat, sol, tmp_path / "split") == serial
    assert len(forks) == 3
    assert raised[0] == 3


def test_unwritable_target_raises_the_serial_error(force_split, tmp_path):
    # the child writes its tail file beside a directory target, then the
    # parent fails to open the target: the tail file must go too
    lat = build_lattice(1.0, 15, FULL_TREE)
    (tmp_path / "a-directory").mkdir()
    targets = (tmp_path / "a-directory", tmp_path / "missing" / "lattice.csv")
    errors = {}
    for on in (False, True):
        forks = force_split(on)
        for target in targets:
            with pytest.raises(OSError) as err:
                write_lattice_csv(target, lat)
            errors.setdefault(on, []).append((type(err.value), str(err.value)))
        assert len(forks) == (2 if on else 0)
    assert errors[True] == errors[False]
    assert [t for t, _ in errors[True]] == [IsADirectoryError, FileNotFoundError]
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]
    assert not any((tmp_path / "a-directory").iterdir())


def test_small_dumps_never_fork(force_split, tmp_path):
    # 2**14 - 1 rows, one short of the split
    lat = build_lattice(1.0, 13, FULL_TREE)
    assert lat.total_nodes == lattice_module.SPLIT_MIN - 1
    forks = force_split(True)
    _dump_digests(lat, _big_solution(lat), tmp_path)
    assert forks == []


def _shared_halves(n, work_in_child):
    """Run ``_in_two`` on a shared array: each element records ``1`` when the
    caller wrote it and ``2`` when a child did."""
    out = np.frombuffer(mmap.mmap(-1, 8 * n), dtype=float)
    parent = os.getpid()

    def work(lo, hi):
        if os.getpid() != parent:
            work_in_child()
        out[lo:hi] = 1.0 if os.getpid() == parent else 2.0

    return lattice_module._in_two(n, work), out


def test_in_two_gives_the_child_the_upper_half(force_split, monkeypatch):
    force_split(True)
    # the child runs on the CPUs that _other_cpus names at the fork
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(lattice_module, "_other_cpus", lambda: {cpu})
    child_cpus = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)  # (count, lowest)

    def record():
        cpus = os.sched_getaffinity(0)
        child_cpus[:] = len(cpus), min(cpus)

    n = lattice_module.SPLIT_MIN + 1
    split, out = _shared_halves(n, record)
    assert split
    assert (out[: n // 2] == 1.0).all() and (out[n // 2:] == 2.0).all()
    assert child_cpus.tolist() == [1, cpu]


@pytest.mark.parametrize("exc", [ValueError, SystemExit, KeyboardInterrupt])
def test_in_two_redoes_a_failed_child_half(exc, force_split):
    force_split(True)

    def fail():
        raise exc

    split, out = _shared_halves(lattice_module.SPLIT_MIN, fail)
    assert split and (out == 1.0).all()


def test_in_two_runs_serially_when_fork_fails(force_split, monkeypatch):
    force_split(True)

    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = []
    n = lattice_module.SPLIT_MIN
    assert not lattice_module._in_two(n, lambda lo, hi: calls.append((lo, hi)))
    assert calls == [(0, n)]
