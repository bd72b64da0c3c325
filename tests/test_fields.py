"""The config table ``cli.FIELDS``: mutations generated from each row, the
README's key list checked against it, and the schedule's ceiling checked
against the lattice ceiling that used to count every level."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from drbsde_lab.cli import FIELDS, MEMORY_BUDGET, NODE_BYTES, ConfigError, ExperimentConfig

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


def _sized(kind, mode, n, levels):
    return {**BASE, "kind": kind, "lattice": {"T": 1.0, "N": n, "mode": mode},
            "schedule": [float(2 ** i) for i in range(levels)]}


def _old_lattice_ceiling(kind, mode, levels):
    """``lattice.N``'s ceiling when it counted every level of a schedule."""
    per_node = NODE_BYTES * (2 + 2 * levels if kind in ("penalization", "pasting") else 2)
    most = MEMORY_BUDGET // per_node
    if mode == "full-tree":
        return (most + 1).bit_length() - 2
    return (math.isqrt(8 * most + 1) - 3) // 2


def test_a_long_schedule_is_blamed_on_the_schedule():
    base = _sized("pasting", "full-tree", 20, 6)
    del base["schedule"]
    ExperimentConfig.from_dict(base)  # the default 6 levels
    ExperimentConfig.from_dict(_sized("pasting", "full-tree", 20, 7))
    with pytest.raises(ConfigError, match=r"^schedule must be <= 7 \(penalty levels on 2097151 "
                                          r"nodes .*\), got 8 levels$"):
        ExperimentConfig.from_dict(_sized("pasting", "full-tree", 20, 8))


@pytest.mark.parametrize("kind", ["penalization", "pasting", "drbsde"])
@pytest.mark.parametrize("mode", ["full-tree", "recombining"])
@pytest.mark.parametrize("levels", [1, 2, 5, 6, 7, 8, 12, 100, 1000])
def test_the_schedule_ceiling_keeps_every_verdict_of_the_lattice_ceiling(kind, mode, levels):
    """A config is admitted exactly when the lattice ceiling that counted every
    level admitted it, and up to 6 levels a rejection keeps its message."""
    limit = _old_lattice_ceiling(kind, mode, levels)
    for n in (limit - 1, limit, limit + 1):
        config = _sized(kind, mode, n, levels)
        if n <= limit:
            ExperimentConfig.from_dict(config)
            continue
        # lattice.N counts at most the default schedule's 6 levels
        lattice_limit = _old_lattice_ceiling(kind, mode, min(levels, 6))
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(config)
        assert str(info.value).startswith(f"lattice.N must be <= {lattice_limit} ("
                                          if n > lattice_limit else "schedule must be <= ")
