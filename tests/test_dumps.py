"""Streaming dump writers against the ``csv.writer`` loops they replaced.

The reference writers below are the per-node ``csv.writer`` loops the
package used before dumps were streamed in chunks with each distinct float
formatted once.  The streaming writers must reproduce their bytes exactly,
for steps shorter than, equal to and longer than a chunk, and for values
that a dedupe by value instead of by bit pattern would get wrong.
"""

import csv
import math
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
                for j in range(bundle.d):
                    w.writerow([
                        i, k, j,
                        f"{bundle.increments[i, k, j]:.17g}",
                        f"{bundle.states[i, k + 1, j]:.17g}",
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


# (mode, N, chunk): every lattice has steps shorter than, equal to and
# longer than its chunk
LAYOUTS = [(RECOMBINING, 9, 5), (FULL_TREE, 5, 4)]


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
    sizes = [lat.n_nodes(k) for k in range(n + 1)]
    assert sizes[0] < chunk < sizes[-1] and chunk in sizes
    with mock.patch.object(lattice_module, "DUMP_CHUNK", chunk):
        assert_node_dumps_match(lat, fill, _solution(lat, y, z, dk, dj),
                                tmp_path_factory.mktemp("nodes"))


# the package's own chunk: tree steps of 2048, 4096 and 8192 nodes
@settings(max_examples=3, deadline=None)
@given(fill=fills, y=fills, z=fills, dk=fills, dj=fills)
def test_node_dumps_match_reference_at_package_chunk(fill, y, z, dk, dj, tmp_path_factory):
    lat = build_lattice(1.0, 13, FULL_TREE)
    assert lat.n_nodes(12) == DUMP_CHUNK
    assert_node_dumps_match(lat, fill, _solution(lat, y, z, dk, dj),
                            tmp_path_factory.mktemp("tree"))


# rows per path are N*d = 6: one chunk holds two paths, exactly one, or less
@pytest.mark.parametrize("chunk", [13, 6, 4])
@settings(max_examples=15, deadline=None)
@given(dB=fills, state=fills)
def test_bundle_dump_matches_reference(chunk, dB, state, tmp_path_factory):
    m, n, d = 5, 3, 2
    states = np.zeros((m, n + 1, d))
    states[:, 1:] = _values(state, m * n * d).reshape(m, n, d)
    bundle = PathBundle(d, 1.0, n, m, 0, _values(dB, m * n * d).reshape(m, n, d), states)
    with mock.patch.object(mc_module, "DUMP_CHUNK", chunk):
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
