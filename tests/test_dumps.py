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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab import lattice as lattice_module
from drbsde_lab import mc as mc_module
from drbsde_lab.bsde import SOLUTION_HEADER, Solution, write_solution_csv
from drbsde_lab.lattice import (
    DUMP_CHUNK,
    FULL_TREE,
    PROCESS_HEADER,
    RECOMBINING,
    AdaptedProcess,
    build_lattice,
    write_lattice_csv,
    write_process_csv,
)
from drbsde_lab.mc import PathBundle, write_bundle_csv


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
    with mock.patch.object(mc_module, "DUMP_CHUNK", chunk), np.errstate(invalid="ignore",
                                                                        over="ignore"):
        assert_same_bytes(write_bundle_csv, reference_bundle_csv, bundle,
                          tmp_path_factory.mktemp("bundle"))


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

    def format_in_parent_only(values, memo=None):
        if os.getpid() != parent:
            raised[0] += 1
            raise KeyboardInterrupt  # a BaseException: the child still exits 1
        return real_format(values, memo)

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
