"""The config table ``cli.FIELDS``: mutations generated from each row, and
the README's key list checked against it."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from drbsde_lab.cli import FIELDS, MEMORY_BUDGET, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]

# one small config every kind can run
BASE = {
    "kind": "drbsde",
    "lattice": {"T": 1.0, "N": 3, "mode": "full-tree"},
    "generator": "linear:-0.5,0.3",
    "terminal": "max(state, -0.8)",
    "lower": "max(state, -0.8) - 0.3 - 0.1*t",
    "upper": "max(state, -0.8) + 0.25 + 0.1*t",
    "schedule": [1, 4, 16],
    "cases": 2,
    "samples": 20,
    "mc": {"M": 200, "degree": 2},
    "seed": 11,
}
# the kind a good value runs under: one that reads the key (drbsde by default)
READER = {"side": "rbsde", "schedule": "penalization", "cases": "axioms", "samples": "hypotheses",
          "box": "hypotheses", "expected_failures": "hypotheses", "mc": "mc-crosscheck",
          "write_paths": "mc-crosscheck", "write_pair_table": "dynkin-verify",
          "tolerances.axioms": "axioms", "tolerances.mc_scale_fraction": "mc-crosscheck",
          "tolerances.value_gap": "dynkin-verify"}

# a value of each JSON type, and the types each field type accepts
JSON_SAMPLES = {"null": None, "boolean": True, "integer": 3, "fraction": 2.5, "string": "x",
                "array": [], "object": {}}
ACCEPTS = {"int": {"integer"}, "real": {"integer", "fraction"}, "bool": {"boolean"},
           "str": {"string"}, "choice": {"string"}, "expression": {"string"},
           "object": {"object"}, "generator": {"string", "object"}, "schedule": {"array"},
           "box": {"array"}, "names": {"array"}}
# per field type, values of the right JSON type: (value, good)
SHAPES = {
    "bool": [(True, True), (False, True)],
    "choice": [("x", False)],
    "expression": [("min(state", False), ("exp(state)", False),
                   ("(" * 5000 + "state" + ")" * 5000, False)],
    "object": [({"no_such_key": 1}, False), ({}, True)],
    "generator": [("cubic:1", False), ("zero", True), ({"name": "zero"}, True)],
    "schedule": [([], False), ([4, 1], False), ([1, math.inf], False), ([-1, 4], False),
                 ([math.nan], False), ([True, 4], False), ([1, 4], True)],
    "box": [([[0, 1]] * 3, False), ([[0, 1, 2]] * 4, False), ([[1, 0]] * 4, False),
            ([[0, math.nan]] * 4, False), ([[-1e308, 1e308]] * 4, False),
            ([["0", 1]] * 4, False), ([[0, 1]] * 4, True)],
    "names": [(["H6"], False), (["H1", ["H2"]], False), (["H1"], True), ([], True)],
}


def _base_for(path):
    kind = READER.get(path, READER.get(path.split(".")[0], "drbsde"))
    base = json.loads(json.dumps(BASE))
    base["kind"] = kind
    if path.startswith("generator."):
        base["generator"] = {"name": "linear:-0.5,0.3"}
    if path.startswith("tolerances."):
        base["tolerances"] = {}
    return base


def _with(base, path, value):
    cfg = json.loads(json.dumps(base))
    *parents, key = path.split(".")
    spec = cfg
    for parent in parents:
        spec = spec[parent]
    spec[key] = value
    return cfg


def mutations():
    """``(name, config, good)`` for every row of ``FIELDS``: each wrong JSON
    type, each bound -1 and +1, each ceiling + 1, and NaN and +-inf for a
    real, plus the shapes of its type."""
    out = []
    for path, f in FIELDS.items():
        base = _base_for(path)
        values = [(sample, False) for name, sample in JSON_SAMPLES.items()
                  if name not in ACCEPTS[f.type]]
        values += SHAPES.get(f.type, [])
        if f.type == "choice":
            values += [(choice, True) for choice in f.choices]
        if f.type == "str":
            values += [("zero" if path == "generator.name" else "elsewhere", True)]
        if f.type == "real":
            values += [(math.nan, False), (math.inf, False), (-math.inf, False),
                       (10**400, False)]
            bound = f.low if f.low is not None else f.above
            values += [(bound - 1, False), (bound + 1, True)] if bound is not None else [(0.5, True)]
        if f.type == "int":
            values += [(f.low - 1, False), (f.low + 1, True)]
            if f.ceiling is not None:
                limit, _ = f.ceiling(ExperimentConfig.from_dict(base).values)
                values += [(limit + 1, False)]
        out += [(f"{path}={value!r:.40}", _with(base, path, value), good)
                for value, good in values]
    return out


CHILD = textwrap.dedent("""
    import json, resource, sys, warnings
    import numpy as np
    limit = int(sys.argv[2])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    warnings.simplefilter("ignore")
    np.seterr(all="ignore")
    from drbsde_lab.cli import main
    statuses = []
    for i, (name, config, good) in enumerate(json.load(open(sys.argv[1]))):
        path = f"{sys.argv[3]}/{i}.json"
        with open(path, "w") as fh:
            json.dump(config, fh)
        statuses.append(main(["run", path, "--out", f"{sys.argv[3]}/out{i}"]))
    print(json.dumps(statuses))
""")


def test_every_field_mutation_ends_in_its_status(tmp_path):
    # in a child process whose address space holds the budget twice over
    # beside the interpreter, so a lost ceiling fails the test instead of
    # exhausting the machine
    cases = mutations()
    assert len(cases) > 300
    (tmp_path / "cases.json").write_text(json.dumps(cases))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "cases.json"), str(3 * MEMORY_BUDGET), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    statuses = json.loads(proc.stdout.splitlines()[-1])
    wrong = [(name, status) for (name, _, good), status in zip(cases, statuses, strict=True)
             if status not in ((0, 1) if good else (2,))]
    assert not wrong, wrong


def test_readme_key_bullets_name_exactly_the_table_keys():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("A config is a JSON object"):text.index("Outputs land in")]
    heads = re.findall(r"^\s*\* ((?:`[\w.]+`(?:, )?)+)", block, re.M)
    named = [key for head in heads for key in re.findall(r"`([\w.]+)`", head)]
    assert sorted(named) == sorted(FIELDS)
