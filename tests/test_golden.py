"""Golden bytes: pinned sha256 of ``report.json`` and ``solution.csv``.

One small config per experiment kind, in both schemes wherever the kind
takes one, with linear or constant drivers only.  The hashes were recorded
before the solver loops were merged into one backward-induction kernel; a
refactor of the solvers must leave every one of them unchanged.  The one
hash that moved when that happened is marked below.  The ``obstacle.csv``
and ``paths.csv`` dumps are pinned too, with hashes recorded before the
dump writers were replaced by the streaming column writer.
"""

import hashlib

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
    "bsde/implicit": {
        "status": 0,
        "report.json": "80ad1f65226d6cdf00b16fee48e8de336aad6c6a3c0c9baf06e4061bcfef57ee",
        "solution.csv": "22fb16785e226ffb0b9003338172ff8bf20985167d92c5a178123b235f30486a",
    },
    "rbsde/explicit": {
        "status": 0,
        "report.json": "e9a9da6b35db87615ddb721f6ab8fff0cb274ad06c9235e57d6bfa91b4d7173f",
        "solution.csv": "c3b041ecd69d7dfa55a8fd4f85cf5b6020df82c21798fb6d7ec42b4cf3fcd289",
    },
    "rbsde/implicit": {
        "status": 0,
        "report.json": "e9a9da6b35db87615ddb721f6ab8fff0cb274ad06c9235e57d6bfa91b4d7173f",
        "solution.csv": "f3090456978d2af3a5ce57aa94a81a1ba40c3a21be75d7167fb108376a64b7c5",
    },
    "drbsde/explicit": {
        "status": 0,
        "report.json": "1c05aef30190fbf889c161dbd07a752c7517e81bf21fc8c5edff9443d384d520",
        "solution.csv": "9f500f0963f70d20e608337541872ff287c7249951900e25926e46effc86eccd",
    },
    "drbsde/implicit": {
        "status": 0,
        "report.json": "1c05aef30190fbf889c161dbd07a752c7517e81bf21fc8c5edff9443d384d520",
        "solution.csv": "7e35acc84e3dd541d9701d0e34e6f10fe8fa05b4dfaa1f33c1ec3c6be19a5366",
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
    },
    "penalization/implicit": {
        "status": 0,
        "report.json": "7437e6ff9f66b470078be4ad93c03a821fb1a1dbcc1c2a23161aae1532c262c0",
        "solution.csv": "c8abdb1e1098a6d5f2dee65179b59704d312b6e161f2fbb20dc1d1ff68f95545",
    },
    "pasting/explicit": {
        "status": 0,
        "report.json": "2b131297dbf6bab1ec2a1b999f0b24ef0a131ce62316be1ca5752a104f9d654d",
        "solution.csv": "00da38c40c9a46dd7c9ef0cbb4013328422f18611a7bda998640d65ee59c05fb",
    },
    "pasting/implicit": {
        "status": 0,
        "report.json": "c0b2c6c302f2df6b73bf4c710ef6600b860e3cf3aab85c4771292ebb00c56e4a",
        "solution.csv": "9bf75940720beb19682739dc9b9fb867168c9be5e0515312585efa4fe74bc50c",
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
    "mc-crosscheck/explicit": {
        "status": 0,
        "report.json": "3ea7577389e1893a4e88de5681c3aa3e7cda4705bc2b562f1ddd44a3acabb41b",
    },
    # the one intended change: the path backend now shares the lattice's
    # fixed point and polishes to 1e-15 instead of 1e-13 relative, which
    # moves stderr and budget in the 12th digit (report.json was 79053efe...)
    "mc-crosscheck/implicit": {
        "status": 0,
        "report.json": "c0eb095d1606f187456872733850bad3ce82ff8aa1dc2973740ce2ac0563af6f",
    },
}


def _cases():
    for kind, cfg in CONFIGS.items():
        schemes = ("explicit",) if kind == "hypotheses" else ("explicit", "implicit")
        for scheme in schemes:
            yield f"{kind}/{scheme}", dict(cfg, scheme=scheme)


def output_hashes(cfg, out):
    status = run_experiment(ExperimentConfig.from_dict(cfg), out)
    hashes = {"status": status}
    for name in ("report.json", "solution.csv"):
        path = out / name
        if path.exists():
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("case,cfg", list(_cases()), ids=[c for c, _ in _cases()])
def test_outputs_match_golden_bytes(case, cfg, tmp_path):
    assert output_hashes(cfg, tmp_path) == GOLDEN[case]


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
