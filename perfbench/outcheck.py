"""The benchmark's output check, run outside the timed region.

An experiment passes when it exits 0, its ``report.json`` says
``passed: true``, every file its kind writes exists, each node dump has one
row per lattice node plus a header, and every written file except
``manifest.json`` is byte-identical to the same experiment's files in the
first run of the invocation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import node_count

COMMON = ("report.json", "manifest.json")
EXPECTED = {
    "bsde": ("solution.csv", "solution.meta.json"),
    "rbsde": ("solution.csv", "solution.meta.json", "obstacle.csv"),
    "drbsde": ("solution.csv", "solution.meta.json"),
    "dynkin-verify": ("game_report.txt",),
    "penalization": ("penalization.csv", "solution.csv", "solution.meta.json"),
    "pasting": ("solution.csv", "solution.meta.json", "ledger.csv"),
    "axioms": (),
    "hypotheses": (),
    "mc-crosscheck": ("mc_estimate.json",),
}
NODE_DUMPS = ("solution.csv", "obstacle.csv")
# the only written file allowed to differ between runs (it records wall time)
UNSTABLE = "manifest.json"


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_experiment(config: dict, out: Path, status) -> tuple[list[str], dict]:
    """Problems found in one experiment's outputs, and the file digests.

    ``status`` is the exit status ``drbsde_lab.cli.main`` returned.
    """
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        report = {}
        problems.append(f"report.json unreadable: {exc}")
    if report and report.get("passed") is not True:
        problems.append(f"report.json says passed: {json.dumps(report.get('passed'))}")
    for name in COMMON + EXPECTED[config["kind"]]:
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    for name in NODE_DUMPS:
        path = out / name
        if path.is_file():
            with open(path, "rb") as fh:
                lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
            want = node_count(config) + 1
            if lines != want:
                problems.append(f"{name} has {lines} lines, expected {want} (nodes + header)")
    digests = {
        p.name: _digest(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != UNSTABLE
    } if out.is_dir() else {}
    return problems, digests


def compare_digests(reference: dict, digests: dict) -> list[str]:
    """Byte-identity problems of one run's files against the first run's."""
    problems = []
    for name in sorted(set(reference) | set(digests)):
        if name not in digests:
            problems.append(f"{name} written in the first run but not in this one")
        elif name not in reference:
            problems.append(f"{name} not written in the first run")
        elif digests[name] != reference[name]:
            problems.append(f"{name} differs from the first run")
    return problems
