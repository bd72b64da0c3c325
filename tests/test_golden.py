"""Golden bytes: pinned sha256 of ``report.json`` and ``solution.csv``.

One small config per experiment kind, in both schemes wherever the kind
takes one, with linear or constant drivers only.  The hashes were recorded
before the solver loops were merged into one backward-induction kernel; a
refactor of the solvers must leave every one of them unchanged.  The one
hash that moved when that happened is marked below, and so are the implicit
hashes that moved when the implicit fixed point began to converge each
element on its own (its old stopping test was a sup norm over the batch).  The ``obstacle.csv``
and ``paths.csv`` dumps are pinned too, with hashes recorded before the
dump writers were replaced by the streaming column writer, and so is the
``ledger.csv`` of a contact-rich pasting game.  ``penalization.csv`` is
pinned with hashes recorded before its ``csv.writer`` loop gave way to the
package's one CSV writer.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

import pytest

from drbsde_lab.cli import ExperimentConfig, run_experiment

RAILS = {
    "terminal": "max(state, -0.8)",
    "lower": "max(state, -0.8) - 0.3 - 0.1*t",
    "upper": "max(state, -0.8) + 0.25 + 0.1*t",
}
TREE = {"T": 1.0, "N": 4, "mode": "full-tree"}
WALK = {"T": 1.0, "N": 12, "mode": "recombining"}
LINEAR = "linear:0.5,0.3"

CONFIGS = {
    "bsde": {"kind": "bsde", "lattice": WALK, "generator": LINEAR,
             "terminal": RAILS["terminal"]},
    "rbsde": {"kind": "rbsde", "lattice": TREE, "generator": LINEAR,
              "side": "upper", "terminal": RAILS["terminal"], "upper": RAILS["upper"]},
    "drbsde": {"kind": "drbsde", "lattice": WALK, "generator": LINEAR, **RAILS},
    "dynkin-verify": {"kind": "dynkin-verify", "lattice": {**TREE, "N": 3},
                      "generator": LINEAR, "seed": 11, **RAILS},
    "penalization": {"kind": "penalization", "lattice": WALK, "generator": LINEAR,
                     "side": "lower", "terminal": RAILS["terminal"],
                     "lower": "max(state, -0.8) + 0.3*(1 - t)"},
    "pasting": {"kind": "pasting", "lattice": TREE, "generator": LINEAR, **RAILS},
    "axioms": {"kind": "axioms", "lattice": {**TREE, "N": 3}, "generator": LINEAR,
               "cases": 3, "seed": 5},
    "hypotheses": {"kind": "hypotheses", "generator": "constant:0.2",
                   "samples": 200, "seed": 3},
    "mc-crosscheck": {"kind": "mc-crosscheck", "lattice": {**WALK, "N": 4},
                      "generator": LINEAR, "mc": {"M": 2000, "degree": 2},
                      "seed": 7, **RAILS},
}

GOLDEN = {
    "bsde/explicit": {
        "status": 0,
        "report.json": "cc91a9794692efcfcfec67040c6e59f9b20e41dc04cc19f968871198dff4087e",
        "solution.csv": "940721b87ee3c931bac81046eefed849a23fd85c9d5c9badc039b36a1b6cb5dc",
    },
    # per-element fixed point: 63 of 624 values moved, by at most 28 ulps
    # (4.4e-16); solution.csv was 22fb1678...
    "bsde/implicit": {
        "status": 0,
        "report.json": "80ad1f65226d6cdf00b16fee48e8de336aad6c6a3c0c9baf06e4061bcfef57ee",
        "solution.csv": "ea6a48e387e362bf858e72813cccfa31c0d9ecdd275b3541af2a00b9ddbc9167",
    },
    "rbsde/explicit": {
        "status": 0,
        "report.json": "e9a9da6b35db87615ddb721f6ab8fff0cb274ad06c9235e57d6bfa91b4d7173f",
        "solution.csv": "c3b041ecd69d7dfa55a8fd4f85cf5b6020df82c21798fb6d7ec42b4cf3fcd289",
    },
    # per-element fixed point: 13 of 200 values moved, by at most 8 ulps
    # (2.2e-16); solution.csv was f3090456...
    "rbsde/implicit": {
        "status": 0,
        "report.json": "e9a9da6b35db87615ddb721f6ab8fff0cb274ad06c9235e57d6bfa91b4d7173f",
        "solution.csv": "47cdd901303f7b112ff489e5e1ebd066b0fa4b247f6438f2216265ab20b1045c",
    },
    "drbsde/explicit": {
        "status": 0,
        "report.json": "1c05aef30190fbf889c161dbd07a752c7517e81bf21fc8c5edff9443d384d520",
        "solution.csv": "9f500f0963f70d20e608337541872ff287c7249951900e25926e46effc86eccd",
    },
    # per-element fixed point: 59 of 624 values moved, by at most 28 ulps
    # (4.4e-16); solution.csv was 7e35acc8...
    "drbsde/implicit": {
        "status": 0,
        "report.json": "1c05aef30190fbf889c161dbd07a752c7517e81bf21fc8c5edff9443d384d520",
        "solution.csv": "b0efb99ae966b8d990828fa76a65f2cfb2728082341d492ecbc79ae7b0422da6",
    },
    "dynkin-verify/explicit": {
        "status": 0,
        "report.json": "1e4d9ee1bdc1f26e29d1e195e6e0d5c97de19fa278cd749fd258106ff30652ac",
    },
    "dynkin-verify/implicit": {
        "status": 0,
        "report.json": "1e4d9ee1bdc1f26e29d1e195e6e0d5c97de19fa278cd749fd258106ff30652ac",
    },
    "penalization/explicit": {
        "status": 0,
        "report.json": "006682f3b81ab0ab8a396993cb21f126d89f71c09074886eb2e96906224dd4f1",
        "solution.csv": "f4b8b219ccd97045f3fa57928a0239a98f5bf6bc14f8eb7fd5c1f92c45ab5bb1",
        "penalization.csv": "5ea174909208ab579d8bea46cef2478df9859f622bf754ffb55b537eebb03bfa",
    },
    # per-element fixed point: 23 of 624 values of the last level moved, by
    # at most 13 ulps (2.2e-16), and 2 of penalization.csv's 6 gaps by 8 ulps;
    # solution.csv was c8abdb1e...
    "penalization/implicit": {
        "status": 0,
        "report.json": "7437e6ff9f66b470078be4ad93c03a821fb1a1dbcc1c2a23161aae1532c262c0",
        "solution.csv": "931718624780382ecac5e019cfe21ee0c9c68ce5b1bf1b99f5fff536ec1b9a0b",
        "penalization.csv": "a0e63580a0e794118079a05def5c527acb6f7c97d37ce53a29eec656c87235c4",
    },
    "pasting/explicit": {
        "status": 0,
        "report.json": "2b131297dbf6bab1ec2a1b999f0b24ef0a131ce62316be1ca5752a104f9d654d",
        "solution.csv": "00da38c40c9a46dd7c9ef0cbb4013328422f18611a7bda998640d65ee59c05fb",
    },
    # per-element fixed point: 13 of 200 values moved, by at most 8 ulps
    # (2.2e-16); solution.csv was 9bf75940...
    "pasting/implicit": {
        "status": 0,
        "report.json": "c0b2c6c302f2df6b73bf4c710ef6600b860e3cf3aab85c4771292ebb00c56e4a",
        "solution.csv": "cb7e38faaa19d7d3a8406b43999aa4923bfea469eb382ddc3c259a6d1b3f3f60",
    },
    "axioms/explicit": {
        "status": 0,
        "report.json": "d151880bb0d454fcfc8d83732085ed4d82511b94586764e9cfd7402ab9beefb3",
    },
    "axioms/implicit": {
        "status": 0,
        "report.json": "d151880bb0d454fcfc8d83732085ed4d82511b94586764e9cfd7402ab9beefb3",
    },
    "hypotheses/explicit": {
        "status": 0,
        "report.json": "224db5b76c390d7518afe6bb4c9febcd5a57f8e056716d8b61091ff6dbb2b06d",
    },
    # Monte Carlo reports go through LAPACK's SVD, whose last bits depend on
    # the OpenBLAS kernel (see blas_kernel), so they are pinned per kernel;
    # the Haswell values were recorded with OPENBLAS_CORETYPE=Haswell, the
    # kernel AMD Zen CPUs also run
    "mc-crosscheck/explicit": {
        "status": 0,
        "report.json": {
            "SkylakeX": "3ea7577389e1893a4e88de5681c3aa3e7cda4705bc2b562f1ddd44a3acabb41b",
            "Haswell": "6957262c436e1cd39430e15409c1bc43e03cd007718efbc7a3a7ad6591edc122",
        },
    },
    # the one intended change: the path backend now shares the lattice's
    # fixed point and polishes to 1e-15 instead of 1e-13 relative, which
    # moves stderr and budget in the 12th digit (report.json was 79053efe...);
    # then the per-element fixed point moved stderr and budget again, by 54
    # ulps (2.8e-17) (report.json was c0eb095d...); both on SkylakeX
    "mc-crosscheck/implicit": {
        "status": 0,
        "report.json": {
            "SkylakeX": "c6b7a69285043ad62c4570a6046e218b3bfbefaf5c6dd4d4618779a02c8bebe3",
            "Haswell": "6ffd2fec180cae9a9c1aae53880edaee5027e8301fb3b7d040e1c8a361944816",
        },
    },
}


def blas_kernel() -> str:
    """The OpenBLAS core kernel numpy's bundled OpenBLAS runs on
    (``SkylakeX``, ``Haswell``, ...; ``OPENBLAS_CORETYPE`` overrides the
    CPU's choice), or ``unknown`` when numpy bundles no such library."""
    libs = Path(np.__file__).resolve().parent.parent.glob("numpy.libs/libscipy_openblas*")
    for lib in sorted(libs):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def pinned(case) -> dict:
    """``GOLDEN[case]`` with each per-kernel hash read for the running kernel."""
    expected = dict(GOLDEN[case])
    for name, digest in expected.items():
        if isinstance(digest, dict):
            kernel = blas_kernel()
            if kernel not in digest:
                pytest.fail(f"{case} {name}: no hash pinned for the OpenBLAS kernel {kernel!r} "
                            f"(pinned: {', '.join(digest)})")
            expected[name] = digest[kernel]
    return expected


def _cases():
    for kind, cfg in CONFIGS.items():
        schemes = ("explicit",) if kind == "hypotheses" else ("explicit", "implicit")
        for scheme in schemes:
            yield f"{kind}/{scheme}", dict(cfg, scheme=scheme)


def output_hashes(cfg, out):
    status = run_experiment(ExperimentConfig.from_dict(cfg), out)
    hashes = {"status": status}
    for name in ("report.json", "solution.csv", "penalization.csv"):
        path = out / name
        if path.exists():
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("case,cfg", list(_cases()), ids=[c for c, _ in _cases()])
def test_outputs_match_golden_bytes(case, cfg, tmp_path):
    assert output_hashes(cfg, tmp_path) == pinned(case)


DUMPS = {
    "rbsde/obstacle.csv": (
        dict(CONFIGS["rbsde"], scheme="explicit"),
        "01183170b34d395a1baae12a5aba8184a5f5dcf0e1ea6ee3be8886feba970f8e",
    ),
    "mc-crosscheck/paths.csv": (
        dict(CONFIGS["mc-crosscheck"], scheme="explicit", write_paths=True),
        "b82fef2229418523437fd1437ef7be154825589b42f53ace0a9e649eecf7e2c1",
    ),
}


@pytest.mark.parametrize("case", list(DUMPS))
def test_dumps_match_golden_bytes(case, tmp_path):
    cfg, digest = DUMPS[case]
    assert run_experiment(ExperimentConfig.from_dict(cfg), tmp_path) == 0
    dump = tmp_path / case.split("/")[1]
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


# a game whose value lies strictly between the rails at the root (the
# dynkin-verify cases above report the upper rail, 0.25, for y0 and both
# optima, in both schemes); hashes recorded before the pair table evaluated
# subtree classes.  The per-element fixed point moved y0, sup_inf and inf_sup
# by at most 2 ulps (5.6e-17) and 355,947 of 458,329 pair values by at most
# 4.2e-16; the saddle pair's value is now the solved y0 bit for bit, so the
# oracle gap went from 1.1e-16 to 0 (the hashes were ffd3abc1..., 9c2f34ee...
# and 339fae7e...)
GAME = {"kind": "dynkin-verify", "lattice": {**TREE, "N": 4}, "scheme": "implicit",
        "generator": "linear:-0.5,0.3", "terminal": RAILS["terminal"],
        "lower": "max(state, -0.8) - 0.3 - 0.1*t",
        "upper": "max(state, -0.8) + 0.35 + 0.1*t",
        "seed": 11, "write_pair_table": True}
GAME_GOLDEN = {
    "report.json": "0c6bf0d3ecadc73d04764eff5034288a0c2d4bf2e91b5ef538c323c9ffe079ba",
    "game_report.txt": "85919873f1177c31fbdaf9e5919710d34521447cda7e4c4ed1b0f46d77275939",
    "pair_table.csv": "03e84d417cc7080cea025ef3e0ba8d57cbf2a3cc2d2ccfdc5fd0d1eb0ed18200",
}


def test_separated_game_matches_golden_bytes(tmp_path):
    assert run_experiment(ExperimentConfig.from_dict(GAME), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"]["oracle_gap"] == 0.0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GAME_GOLDEN} == GAME_GOLDEN


# a contact-rich pasting game: the solution starts on the upper rail, which
# leaves segment 1 empty, and its ledger has three segments; no other pin
# covers ``ledger.csv``.  Hashes recorded before the contact frontiers were
# read from chained ``first_hitting`` rules
CONTACTS = {"kind": "pasting", "lattice": {**TREE, "N": 6}, "generator": LINEAR,
            "terminal": RAILS["terminal"],
            "lower": "max(state, -0.8) - 0.05 - 0.1*t",
            "upper": "max(state, -0.8) + 0.05 + 0.1*t"}
CONTACTS_LEDGER = "c140625002018893a10ea1d917d8864b2bc11eb4d168f32d04d2121bd558f5a7"
CONTACTS_GOLDEN = {
    "explicit": {
        "ledger.csv": CONTACTS_LEDGER,
        "solution.csv": "b3830ab074508eb43a9e2631d642916885f0031ae5fffc829cf482a1df0c19e2",
        "report.json": "34d11ba92aa75f68030f17bd2d648f86daac199a00c4ed22cea7f6db4553869d",
    },
    "implicit": {
        "ledger.csv": CONTACTS_LEDGER,
        "solution.csv": "c1782550be3ce21d830743c5c3b1783374c117eebdc2d88d75a3a040e493f51d",
        "report.json": "d43d4dedbcaa12da488768ddbe9073f3c7fb1d0e7afe3421b4b6095a9f0cda54",
    },
}


@pytest.mark.parametrize("scheme", list(CONTACTS_GOLDEN))
def test_contact_rich_pasting_matches_golden_bytes(scheme, tmp_path):
    cfg = dict(CONTACTS, scheme=scheme)
    assert run_experiment(ExperimentConfig.from_dict(cfg), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"]["ledger_max_depth"] == 3
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in CONTACTS_GOLDEN[scheme]} == CONTACTS_GOLDEN[scheme]


def write_tanh_sin_driver(path):
    """Tabulated ``0.5*tanh(y) + 0.3*sin(z)``: one state knot, two equal t slices."""
    y = np.linspace(-4.0, 4.0, 81)
    z = np.linspace(-4.0, 4.0, 81)
    grid = 0.5 * np.tanh(y)[:, None] + 0.3 * np.sin(z)[None, :]
    np.savez(path, t=np.array([0.0, 1.0]), state=np.array([0.0]), y=y, z=z,
             values=np.broadcast_to(grid, (2, 1, y.size, z.size)),
             kappa=0.5, lam=0.5, alpha=0.5, h=0.0)


# tabulated-driver runs; hashes recorded before the driver evaluation was
# rewritten to gather only the corners of its live axes.  The per-element
# fixed point moved 6 of penalization's 624 values by at most 7 ulps and 7
# of pasting's 200 by at most 56 ulps, both up to 2.5e-16 (solution.csv was
# 0378f7ab... and 10d3cdd6...)
TABULATED = {
    "penalization/upper/implicit": (
        {"kind": "penalization", "lattice": WALK, "scheme": "implicit",
         "side": "upper", "terminal": RAILS["terminal"], "upper": RAILS["upper"]},
        {"status": 0,
         "report.json": "ec3040943fc355996a1d2744c4ac7e888f3fe9ceda45471d5da3917f405f4da1",
         "solution.csv": "d56a94471bad2ef15fa2ea504fb8b7cd4745219fecdd17968b577b5f104a8ee5",
         "penalization.csv": "45b970c55c5cf990407f9a50959f8530346829e3eadb9f8d238f1e159102277a"},
    ),
    "pasting/implicit": (
        dict(CONFIGS["pasting"], scheme="implicit"),
        {"status": 0,
         "report.json": "6a4234d4b3642a97ab9125789fc8defb0c83873106178b04c46851e0c52da9b5",
         "solution.csv": "2c0d519746a7c94a5f4aff1b44c3197e4087f9457c7ced2c54764f5501e375b2"},
    ),
    # recorded before check_hypotheses made each distinct driver evaluation once
    "hypotheses": (
        dict(CONFIGS["hypotheses"], scheme="explicit"),
        {"status": 0,
         "report.json": "8513ff297ead6434d984352d7035de9d743f92431c69b104dbf59550ced39c16"},
    ),
}


@pytest.mark.parametrize("case", list(TABULATED))
def test_tabulated_driver_outputs_match_golden_bytes(case, tmp_path):
    cfg, golden = TABULATED[case]
    driver = tmp_path / "driver.npz"
    write_tanh_sin_driver(driver)
    cfg = dict(cfg, generator=f"driver-file:{driver}")
    assert output_hashes(cfg, tmp_path / "out") == golden
